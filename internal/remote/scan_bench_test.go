package remote

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/bench"
)

// BenchmarkScanAckRows parses one acknowledged /v1/suite stream as the
// client reads a chunk's reply: a start ack, 16 result rows carrying
// metrics and two implementations, and an end ack.
func BenchmarkScanAckRows(b *testing.B) {
	var stream bytes.Buffer
	enc := json.NewEncoder(&stream)
	const rows = 16
	enc.Encode(SuiteAck{Ack: "start", Jobs: rows})
	for i := 0; i < rows; i++ {
		enc.Encode(bench.JobReport{
			Name: fmt.Sprintf("dhrystone-%02d", i), OK: true, ElapsedMS: 2.5, Worker: i % 2,
			Metrics: &bench.MetricsReport{
				Checksum: 7 * i, RVInsts: 512, RVBits: 16384, ARTInsts: 517, ARTTrits: 4653,
				ART9Cycles: 180_000, VexCycles: 120_000, PicoCycles: 390_000, Removed: 12,
			},
			Implementations: []bench.ImplReport{
				{Tech: "cntfet32", Gates: 574, FreqMHz: 200, PowerW: 4.27e-5, DMIPS: 106, DMIPSPerW: 2.5e6},
				{Tech: "fpga", ALMs: 847, Registers: 366, RAMBits: 65536, FreqMHz: 150, PowerW: 1.1, DMIPS: 80, DMIPSPerW: 72.6},
			},
		})
	}
	enc.Encode(SuiteAck{Ack: "end", Rows: rows})
	data := stream.Bytes()

	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		got, ended := 0, false
		err := scanAckRows(bytes.NewReader(data),
			func(bench.JobReport) bool { got++; return true },
			func(a ackRow) bool { ended = a.Ack == "end"; return !ended })
		if err != nil || got != rows || !ended {
			b.Fatalf("scan: %d rows, ended %v, err %v", got, ended, err)
		}
	}
}
