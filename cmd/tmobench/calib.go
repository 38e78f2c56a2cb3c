package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The machines this benchmark runs on are shared: a neighbour's load can
// slow every instruction, and especially every cache miss, by tens of
// percent for tens of seconds. So around every repetition the benchmark
// times a fixed calibration program — a child process running the kernels
// below, none of which calls into the repository — and reports timings in
// reference seconds: the measured seconds divided by the machine's speed
// factor, the calibration time over calibrationSeconds.

// calibrationEnv makes the binary run the calibration kernels and print
// their time instead of benchmarking.
const calibrationEnv = "TMOBENCH_CALIBRATE"

// calibrationSeconds is the kernels' time on a quiet 2-vCPU x86-64 VM, so a
// speed factor of 1 means that machine at rest.
const calibrationSeconds = 0.5

// calibNode is one 64-byte element of the pointer-chasing list.
type calibNode struct {
	next *calibNode
	pad  [7]uint64
}

// calibSink keeps the kernels' results live.
var calibSink uint64

// calibrationKernels times a fixed mix of the operations the simulator is
// made of — dependent loads over caches and DRAM, pointer chasing, map
// updates and lookups, small allocations, sorting and integer arithmetic —
// and returns the time of the timed parts.
func calibrationKernels() time.Duration {
	rng := rand.New(rand.NewPCG(1, 2))
	var elapsed time.Duration
	timed := func(f func()) {
		start := time.Now()
		f()
		elapsed += time.Since(start)
	}

	// Single-cycle permutations (Sattolo) over 4 MiB and 32 MiB.
	for _, n := range []int{1 << 20, 1 << 23} {
		next := make([]uint32, n)
		for i := range next {
			next[i] = uint32(i)
		}
		for i := n - 1; i > 0; i-- {
			j := rng.IntN(i)
			next[i], next[j] = next[j], next[i]
		}
		timed(func() {
			var j uint32
			for i := 0; i < 1<<21; i++ {
				j = next[j]
			}
			calibSink += uint64(j)
		})
	}

	nodes := make([]calibNode, 1<<19)
	order := rng.Perm(len(nodes))
	for i, o := range order {
		nodes[o].next = &nodes[order[(i+1)%len(order)]]
	}
	timed(func() {
		n := &nodes[0]
		for i := 0; i < 1<<20; i++ {
			n = n.next
		}
		calibSink += uint64(n.pad[0])
	})

	timed(func() {
		m := map[uint64]uint64{}
		for i := uint64(0); i < 1<<17; i++ {
			m[i*0x9e3779b97f4a7c15] = i
		}
		for i := uint64(0); i < 1<<19; i++ {
			calibSink += m[(i%(1<<17))*0x9e3779b97f4a7c15]
		}
	})

	timed(func() {
		var keep []*calibNode
		for i := 0; i < 1<<20; i++ {
			n := &calibNode{}
			if i%64 == 0 {
				keep = append(keep, n)
			}
		}
		calibSink += uint64(len(keep))
	})

	fs := make([]float64, 1<<19)
	for i := range fs {
		fs[i] = rng.Float64()
	}
	timed(func() { slices.Sort(fs) })

	timed(func() {
		x := calibSink
		for i := 0; i < 1<<25; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		calibSink = x
	})
	return elapsed
}

// calibrate runs the calibration program in a child process, so its memory
// and caches stay out of the benchmark's own, and returns its time.
func calibrate() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), calibrationEnv+"=1")
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("calibration: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}
