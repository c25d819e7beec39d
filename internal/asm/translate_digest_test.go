package asm_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/rv32"
	"repro/internal/xlate"
)

// translatorOptions are the four translator option sets.
var translatorOptions = []xlate.Options{
	{},
	{NoPeephole: true},
	{NoInlineMul: true},
	{NoPeephole: true, NoInlineMul: true},
}

// suiteWorkloads are the built-in and extended workloads.
func suiteWorkloads() []bench.Workload {
	return append(append([]bench.Workload(nil), bench.Workloads...), bench.ExtendedWorkloads...)
}

// asmDigests pins the SHA-256 of Translate(...).Asm for every workload
// under each translator option set, keyed "workload/option set". The
// text is what art9-xlate prints and what the program cache keys on, so
// it must not change by a byte when the translator's internals do.
var asmDigests = map[string]string{
	"bubble/{NoInlineMul:false NoPeephole:false}":    "83d0b148cb7a33ceb82afc3294fdd7d18445e387c5f8e5bfa0f3ed01ed83e3e7",
	"bubble/{NoInlineMul:false NoPeephole:true}":     "acb53e92d0725c5d6a2a85ca800090bb36e5f1597c2d93734600b746548f1fc9",
	"bubble/{NoInlineMul:true NoPeephole:false}":     "83d0b148cb7a33ceb82afc3294fdd7d18445e387c5f8e5bfa0f3ed01ed83e3e7",
	"bubble/{NoInlineMul:true NoPeephole:true}":      "acb53e92d0725c5d6a2a85ca800090bb36e5f1597c2d93734600b746548f1fc9",
	"gemm/{NoInlineMul:false NoPeephole:false}":      "4c185bb81f91e220ced81c4e8b844e5a2db05a0ceab870cd9d61f1a53ed6fff6",
	"gemm/{NoInlineMul:false NoPeephole:true}":       "2d29c7f78dd8cdd9d19ed08ae0245c92fb0f53de6c4b472d46260a72c545ce7f",
	"gemm/{NoInlineMul:true NoPeephole:false}":       "1c25656b8812cb604bfe31a0768668182e9b9e684dea4b08681047ab4c13cbf8",
	"gemm/{NoInlineMul:true NoPeephole:true}":        "9eb6f545620b77a31476d74b26ee1346e17833067ff7192ce3609b579715c902",
	"sobel/{NoInlineMul:false NoPeephole:false}":     "d537b3be9aa08a90ca7a8bf14812da204dcb8510f726b2e53789fc3e9ec87ca6",
	"sobel/{NoInlineMul:false NoPeephole:true}":      "653d7bf8ff14c4cfde50ee5a3c6aa0602e2c7e081d241d648de583c5fc4a029d",
	"sobel/{NoInlineMul:true NoPeephole:false}":      "d537b3be9aa08a90ca7a8bf14812da204dcb8510f726b2e53789fc3e9ec87ca6",
	"sobel/{NoInlineMul:true NoPeephole:true}":       "653d7bf8ff14c4cfde50ee5a3c6aa0602e2c7e081d241d648de583c5fc4a029d",
	"dhrystone/{NoInlineMul:false NoPeephole:false}": "d18fde111e74c9f9cbbcc29e983e3af2f37456d578e912472eaa08cf7804d856",
	"dhrystone/{NoInlineMul:false NoPeephole:true}":  "497c8a99cb1407850c20e1f9d49c1107e2d36f070263525e4d6fb2077f2a39af",
	"dhrystone/{NoInlineMul:true NoPeephole:false}":  "4b1c8f4d9a56f449e4f7a1e0a7002108c8bf4bdeee445b0afcdd3cd866c16d58",
	"dhrystone/{NoInlineMul:true NoPeephole:true}":   "0a8af0d1f654f05ece2734776e08cfb73d61f17d9d787ab29c076282baace656",
	"strsearch/{NoInlineMul:false NoPeephole:false}": "216a348dd17fdf995bb1fef599cc21fce5b2aa192de68ff26ce6820111718ddd",
	"strsearch/{NoInlineMul:false NoPeephole:true}":  "da2c78780a04184b7826bc2d99d7c8e061151f8d3a0dded6e80aca107794c1c6",
	"strsearch/{NoInlineMul:true NoPeephole:false}":  "216a348dd17fdf995bb1fef599cc21fce5b2aa192de68ff26ce6820111718ddd",
	"strsearch/{NoInlineMul:true NoPeephole:true}":   "da2c78780a04184b7826bc2d99d7c8e061151f8d3a0dded6e80aca107794c1c6",
}

func TestTranslatedAsmDigests(t *testing.T) {
	for _, w := range suiteWorkloads() {
		rvProg, err := rv32.Assemble(w.Source)
		if err != nil {
			t.Fatalf("%s: rv32 assemble: %v", w.Name, err)
		}
		for _, opts := range translatorOptions {
			key := fmt.Sprintf("%s/%+v", w.Name, opts)
			out, err := xlate.Translate(rvProg, opts)
			if err != nil {
				t.Fatalf("%s: translate: %v", key, err)
			}
			sum := sha256.Sum256([]byte(out.Asm))
			if got := hex.EncodeToString(sum[:]); got != asmDigests[key] {
				t.Errorf("%q: %s, want %s", key, got, asmDigests[key])
			}
		}
	}
}
