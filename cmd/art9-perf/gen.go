package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/bench"
)

// This file is the seeded input generator. The program under test only
// ever sees what it produces: RV32 sources inside manifest documents.
// Every value stays inside the range of the suite program it imitates
// (bubble-sort keys 5..221, search "characters" 0..9, GEMM operands
// -4..4, Dhrystone RUNS well below the 9-trit limit), so the
// translator's 9-trit value contract holds for every seed.

// program is one generated input: an RV32 source and the iteration count
// its manifest entry carries. Name is unique within a workload's pool and
// is the key of the program's oracle row.
type program struct {
	Name       string
	Source     string
	Iterations int
}

// request is one client call: a manifest document and the program name of
// each job in it, in job order.
type request struct {
	manifest []byte
	names    []string
}

// technologies is every manifest's technology list: each job is estimated
// against both of the paper's implementation targets.
var technologies = []string{"cntfet32", "stratixv"}

// newRand returns the generator for one seeded stream; salt separates the
// streams of different pools drawn from the same seed.
func newRand(seed, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

// mix is splitmix64: a cheap, well-spread hash for per-index decisions
// that must not depend on the order in which clients draw requests.
func mix(seed int64, i uint64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + i*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// kernelPool generates n tiny kernels named prefix-NNN. Kinds rotate
// sort → search → GEMM and sizes step through their ranges, so every
// seed yields the same mix of work and only the data differs.
func kernelPool(seed int64, prefix string, n int) []program {
	r := newRand(seed, int64(len(prefix))<<8|int64(prefix[0]))
	ps := make([]program, n)
	for i := range ps {
		name := fmt.Sprintf("%s-%03d", prefix, i)
		step := i / 3 % 9
		switch i % 3 {
		case 0:
			ps[i] = sortKernel(r, name, 4+step)
		case 1:
			ps[i] = searchKernel(r, name, 8+step, 2+i/27%2)
		default:
			ps[i] = gemmKernel(r, name)
		}
	}
	return ps
}

// dhrystonePool generates n Dhrystone jobs whose RUNS are stratified over
// [100, 250): job i draws from the i-th of n equal slices, so the pool's
// total work barely moves between seeds.
func dhrystonePool(seed int64, n int) []program {
	r := newRand(seed, 'd')
	const equ = ".equ RUNS, 100"
	if !strings.Contains(bench.Dhrystone.Source, equ) {
		panic("art9-perf: Dhrystone source no longer declares " + equ)
	}
	ps := make([]program, n)
	for i := range ps {
		runs := 100 + (150*i+r.Intn(150))/n
		name := fmt.Sprintf("dhry-%02d", i)
		src := strings.Replace(bench.Dhrystone.Source, equ, ".equ RUNS, "+strconv.Itoa(runs), 1)
		ps[i] = program{
			Name:       name,
			Source:     fmt.Sprintf("# %s: Dhrystone-class loop, %d runs\n%s", name, runs, src),
			Iterations: runs,
		}
	}
	return ps
}

func words(vals []int) string {
	s := make([]string, len(vals))
	for i, v := range vals {
		s[i] = strconv.Itoa(v)
	}
	return strings.Join(s, ", ")
}

// sortKernel is the suite's bubble sort over n random keys.
func sortKernel(r *rand.Rand, name string, n int) program {
	keys := make([]int, n)
	for i := range keys {
		keys[i] = 5 + r.Intn(217)
	}
	return program{Name: name, Iterations: 1, Source: fmt.Sprintf(`# %s: bubble sort of %d words
.equ N, %d
.data
arr:	.word %s
.text
	la   s0, arr
	li   s1, %d
outer:
	mv   s2, s0
	li   s3, 0
inner:
	lw   t0, 0(s2)
	lw   t1, 4(s2)
	ble  t0, t1, noswap
	sw   t1, 0(s2)
	sw   t0, 4(s2)
noswap:
	addi s2, s2, 4
	addi s3, s3, 1
	blt  s3, s1, inner
	addi s1, s1, -1
	bgtz s1, outer
	la   s0, arr
	li   s1, N
	li   a0, 0
	li   t2, 0
chk:
	lw   t0, 0(s0)
	bnez t2, odd
	add  a0, a0, t0
	li   t2, 1
	j    next
odd:
	sub  a0, a0, t0
	li   t2, 0
next:
	addi s0, s0, 4
	addi s1, s1, -1
	bgtz s1, chk
	ebreak
`, name, n, n, words(keys), n-1)}
}

// searchKernel is the extended suite's naive word search: a k-word needle
// cut from a random position of an h-word haystack, so at least one match
// exists.
func searchKernel(r *rand.Rand, name string, h, k int) program {
	hay := make([]int, h)
	for i := range hay {
		hay[i] = r.Intn(10)
	}
	at := r.Intn(h - k + 1)
	return program{Name: name, Iterations: 1, Source: fmt.Sprintf(`# %s: %d-word needle in a %d-word haystack
.data
hay:	.word %s
needle:	.word %s
.text
	li   s1, 0
	li   a0, 0
outer:
	la   s2, hay
	slli t0, s1, 2
	add  s2, s2, t0
	la   s3, needle
	li   s4, %d
inner:
	lw   t0, 0(s2)
	lw   t1, 0(s3)
	bne  t0, t1, miss
	addi s2, s2, 4
	addi s3, s3, 4
	addi s4, s4, -1
	bgtz s4, inner
	add  a0, a0, s1
	addi a0, a0, 1
miss:
	addi s1, s1, 1
	li   t0, %d
	blt  s1, t0, outer
	ebreak
`, name, k, h, words(hay), words(hay[at:at+k]), k, h-k+1)}
}

// gemmKernel is the suite's GEMM cut down to 3×3, B stored transposed,
// with the inner product unrolled and the checksum folded into the store
// loop so every job stays under 2,000 pipelined cycles.
func gemmKernel(r *rand.Rand, name string) program {
	m := make([]int, 18)
	for i := range m {
		m[i] = r.Intn(9) - 4
	}
	return program{Name: name, Iterations: 1, Source: fmt.Sprintf(`# %s: 3x3 integer GEMM
.data
A:	.word %s
BT:	.word %s
C:	.space 36
.text
	la   s5, A
	la   s6, BT
	la   s7, C
	li   a0, 0
	li   t4, 0
	li   s0, 0
iloop:
	li   s1, 0
	li   s8, 0
jloop:
	add  s2, s5, s0
	add  s3, s6, s1
	lw   t0, 0(s2)
	lw   t1, 0(s3)
	mul  a1, t0, t1
	lw   t0, 4(s2)
	lw   t1, 4(s3)
	mul  t0, t0, t1
	add  a1, a1, t0
	lw   t0, 8(s2)
	lw   t1, 8(s3)
	mul  t0, t0, t1
	add  a1, a1, t0
	add  t2, s7, s0
	add  t2, t2, s8
	sw   a1, 0(t2)
	# Alternating-sum checksum over C in row-major order.
	bnez t4, odd
	add  a0, a0, a1
	li   t4, 1
	j    next
odd:
	sub  a0, a0, a1
	li   t4, 0
next:
	addi s8, s8, 4
	addi s1, s1, 12
	li   t3, 36
	blt  s1, t3, jloop
	addi s0, s0, 12
	li   t3, 36
	blt  s0, t3, iloop
	ebreak
`, name, words(m[:9]), words(m[9:]))}
}

// freshVariant returns p with a unique trailing comment: a program the
// result cache has never seen whose row must still equal p's.
func freshVariant(p program, n uint64) program {
	p.Source += "# fresh " + strconv.FormatUint(n, 10) + "\n"
	return p
}

// newRequest renders progs as one manifest document.
func newRequest(progs ...program) request {
	m := bench.Manifest{Technologies: technologies, Jobs: make([]bench.ManifestJob, len(progs))}
	names := make([]string, len(progs))
	for i, p := range progs {
		m.Jobs[i] = bench.ManifestJob{Name: p.Name, Source: p.Source, Iterations: p.Iterations}
		names[i] = p.Name
	}
	raw, err := json.Marshal(m)
	if err != nil {
		panic(err) // a Manifest of strings and ints always marshals
	}
	return request{manifest: raw, names: names}
}
