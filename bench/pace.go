package main

// Noise control between cycles. The seed machine is a 2-vCPU guest on a
// shared host: its neighbours slow throughput-bound code by up to a factor of
// 1.7 for seconds to tens of minutes at a time (steal stays 0, the other vCPU
// is idle, a dependent-load loop does not move: a busy sibling hyperthread),
// and the same binary at the same seed then differs by 20-60 % between two
// runs. Ten raw runs spread wider than any bound the contract allows
// (SPREAD.md). Two measures, with the one P the run is pinned to, bring the
// gated numbers inside it:
//
//   - Garbage is collected only between cycles, by the rule GOGC=100 would
//     apply (allocated since the last collection > live heap). Its cost stays
//     in ops_per_s and cpu_ms_per_op; on the one P the run is pinned to, a
//     concurrent collection would otherwise share the processor with whichever
//     op it lands on.
//   - A fixed probe is timed between cycles, a few percent of the time, and
//     every time metric of a round is scaled by refNominalMs over the round's
//     mean probe time, i.e. reported at reference machine speed. The probe
//     runs none of the program's code and lives outside the Go heap, so a
//     change to the program cannot move it; time spent in it is excluded from
//     the round. served_oltp's fsync'd commits are scaled like everything
//     else: on this guest an fsync is host CPU work behind virtio, and it
//     slows with the machine (holding it out of the scaling widened the
//     ten-seed range of write_ms_p50 from 16 % to 60 %, SPREAD.md).

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
	"unsafe"
)

const (
	// refNominalMs is the probe's time on the seed machine when it is quiet.
	// At that speed scaled and raw values coincide.
	refNominalMs = 1.5
	// paceEvery is the time of cycles that earns one probe sample.
	paceEvery = 40 * time.Millisecond
	// edgeSamples are taken at each end of a window, on top of the paced ones.
	edgeSamples = 4
	// gcFloor keeps tiny heaps from collecting every cycle.
	gcFloor = 4 << 20

	refSlots = 1 << 20 // 4 MB of uint32
	refKeys  = 40_000
)

// refTable lives outside the Go heap so it does not count in heap_live_mb.
var refTable = func() []uint32 {
	b, err := syscall.Mmap(-1, 0, 4*refSlots, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(err)
	}
	t := unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), refSlots)
	for i := range t {
		t[i] = uint32(i) * 2654435761
	}
	return t
}()

var refRun uint32

// refProbe times a fixed piece of throughput-bound work, in ms: FNV hashes of
// 8-byte keys, each looked up in a 4 MB table, independent of one another.
func refProbe() float64 {
	refRun++
	var acc uint32
	t0 := time.Now()
	for j := uint32(0); j < refKeys; j++ {
		k := uint64(j+refRun*refKeys) * 0x9E3779B97F4A7C15
		h := uint32(2166136261)
		for b := 0; b < 64; b += 8 {
			h = (h ^ uint32(k>>b)&0xff) * 16777619
		}
		acc += refTable[h&(refSlots-1)]
	}
	ms := float64(time.Since(t0)) / 1e6
	if acc == 1 {
		panic("unreachable: keeps acc live")
	}
	return ms
}

var gcSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/live:bytes"}}

// pacer collects the probe samples of one window (a round or a set-up) and
// the time spent taking them. It is driven by one goroutine.
type pacer struct {
	collect     bool   // the measured phase: GOGC is off and pace collects
	gcAllocs    uint64 // cumulative allocation at the last collection
	last        time.Time
	sum         float64 // probe samples, ms
	n           int
	wallS, cpuS float64 // spent probing
	t0          time.Time
	cpu0        float64
}

func (p *pacer) sample(n int) {
	t0, cpu0 := time.Now(), cpuSeconds()
	for i := 0; i < n; i++ {
		p.sum += refProbe()
		p.n++
	}
	p.last = time.Now()
	p.wallS += p.last.Sub(t0).Seconds()
	p.cpuS += cpuSeconds() - cpu0
}

// begin opens a window.
func (p *pacer) begin() {
	*p = pacer{collect: p.collect, gcAllocs: p.gcAllocs}
	p.sample(edgeSamples)
	p.wallS, p.cpuS = 0, 0
	p.t0, p.cpu0 = time.Now(), cpuSeconds()
}

// pace is called by a workload after each cycle (by one goroutine only:
// connection 0 in served_oltp): in the measured phase it collects garbage if
// a collection is due, and it takes a probe sample when one is due.
func (p *pacer) pace() {
	if p.collect {
		metrics.Read(gcSamples)
		allocs, live := gcSamples[0].Value.Uint64(), gcSamples[1].Value.Uint64()
		if allocs-p.gcAllocs > max(live, gcFloor) {
			runtime.GC()
			metrics.Read(gcSamples[:1])
			p.gcAllocs = gcSamples[0].Value.Uint64()
		}
	}
	if time.Since(p.last) >= paceEvery {
		p.sample(1)
	}
}

// end closes the window: its wall and CPU seconds without the probes, and
// the mean probe time in ms.
func (p *pacer) end() (wallS, cpuS, speedMs float64) {
	wallS = time.Since(p.t0).Seconds() - p.wallS
	cpuS = cpuSeconds() - p.cpu0 - p.cpuS
	p.sample(edgeSamples)
	return wallS, cpuS, p.sum / float64(p.n)
}
