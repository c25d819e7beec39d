package bench

import (
	"testing"
	"time"

	"repro/internal/xlate"
)

// TestManifestTimeoutRidesTheJobs pins the timeout_ms plumbing: a
// manifest entry's bound lands on the engine job (local enforcement)
// and on its JobSpec (remote enforcement), and its absence leaves both
// zero.
func TestManifestTimeoutRidesTheJobs(t *testing.T) {
	m, err := ParseManifest([]byte(`{
		"technologies": ["cntfet32"],
		"jobs": [
			{"name": "bounded", "workload": "bubble", "timeout_ms": 1500},
			{"name": "unbounded", "workload": "gemm"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := m.EngineJobs("", xlate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := jobs[0].Timeout; got != 1500*time.Millisecond {
		t.Errorf("bounded job Timeout = %v, want 1.5s", got)
	}
	spec := jobs[0].Spec.(*JobSpec)
	if spec.Job.TimeoutMS != 1500 {
		t.Errorf("bounded job spec TimeoutMS = %d, want 1500 (must ride the wire)", spec.Job.TimeoutMS)
	}
	if len(spec.Technologies) != 1 || spec.Technologies[0] != "cntfet32" {
		t.Errorf("spec technologies %v, want the manifest's", spec.Technologies)
	}
	if jobs[1].Timeout != 0 || jobs[1].Spec.(*JobSpec).Job.TimeoutMS != 0 {
		t.Errorf("unbounded job gained a timeout: %v / %d",
			jobs[1].Timeout, jobs[1].Spec.(*JobSpec).Job.TimeoutMS)
	}
}

// TestEngineJobsRefusesTranslatorOptions pins that a job's identity is
// its spec: JobSpec carries no translator options, so a remote peer and
// the result cache would see a NoPeephole job as a default one, and a
// cached backend would replay its row for a later default job.
// EngineJobs refuses such options instead.
func TestEngineJobsRefusesTranslatorOptions(t *testing.T) {
	m, err := ParseManifest([]byte(`{"jobs": [{"name": "bubble", "workload": "bubble"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if jobs, err := m.EngineJobs("", xlate.Options{NoPeephole: true}); err == nil {
		t.Fatalf("EngineJobs built %d jobs under NoPeephole, want an error", len(jobs))
	}
}
