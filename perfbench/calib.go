package main

import (
	"slices"
	"time"
)

// The speed probe is a fixed piece of pure-Go work, owned by the
// benchmark and timed between the program's ops. Its time says how fast
// the machine runs at that moment: on a shared host the same binary runs
// markedly slower in one run than in the next (CPU frequency, a busy
// sibling hyperthread, other tenants' memory traffic), and every op of
// the program slows with it. Each op's wall time is scaled by the
// probe's reference time over the probe times taken around the op, so
// the timed end-to-end metrics read as on the reference box. The
// program's code never runs inside the probe: a change to the program
// moves the scaled times in full.

// probeRefMS is the probe's time on the reference box (2-core VM, Intel
// Xeon, Go 1.24): the scale every speed-normalized time is reported at.
const probeRefMS = 0.16

// probeReps is how often one probe sample runs the probe work; the
// sample is the fastest run, which an interrupt or a preemption cannot
// lengthen.
const probeReps = 5

// probeEvery is the least time between two probe samples: at about
// 0.8 ms a sample, the probe costs under 1% of a timed phase.
const probeEvery = 100 * time.Millisecond

// probeHalf is how many samples on each side of an op its scale rests
// on: the op's segment is scaled by the median of 2*probeHalf samples.
const probeHalf = 3

const probeGrid = 48

// speedProbe samples the probe and scales op times by it. Ops are
// grouped in segments: segment k runs from sample k to sample k+1.
type speedProbe struct {
	dist    []int32
	queue   []int32
	keys    []int
	m       map[int]int
	sink    int
	last    time.Time
	samples []float64 // probe times, ms
}

// newSpeedProbe returns a probe with its first sample taken, which opens
// segment 0.
func newSpeedProbe() *speedProbe {
	p := &speedProbe{
		dist:  make([]int32, probeGrid*probeGrid),
		queue: make([]int32, 0, probeGrid*probeGrid),
		keys:  make([]int, 1024),
		m:     make(map[int]int, 1024),
	}
	p.work() // first run allocates the map's buckets
	p.sample()
	return p
}

// work is one run of the probe work: breadth-first searches over a grid
// with walls (the shape of the router's inner loop), then a map built
// and read back and a slice sorted (the shape of scheduling
// bookkeeping). It allocates nothing.
func (p *speedProbe) work() int {
	sum := 0
	for src := 0; src < 4; src++ {
		for i := range p.dist {
			p.dist[i] = -1
		}
		start := int32(src*probeGrid*probeGrid/4 + 1)
		p.dist[start] = 0
		p.queue = append(p.queue[:0], start)
		for h := 0; h < len(p.queue); h++ {
			c := p.queue[h]
			x, y := int(c)%probeGrid, int(c)/probeGrid
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || ny < 0 || nx >= probeGrid || ny >= probeGrid {
					continue
				}
				// Walls on every third column, open every seventh row.
				if nx%3 == 2 && ny%7 != 0 {
					continue
				}
				n := int32(ny*probeGrid + nx)
				if p.dist[n] < 0 {
					p.dist[n] = p.dist[c] + 1
					p.queue = append(p.queue, n)
				}
			}
		}
		sum += int(p.dist[len(p.dist)-1])
	}
	clear(p.m)
	x := uint32(2463534242)
	for i := range p.keys {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		p.keys[i] = int(x % 100003)
		p.m[p.keys[i]] += i
	}
	for _, k := range p.keys {
		sum += p.m[k]
	}
	slices.Sort(p.keys)
	return sum + p.keys[len(p.keys)/2]
}

// sample times the probe, records the fastest of probeReps runs and
// opens a new segment.
func (p *speedProbe) sample() {
	best := 0.0
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		p.sink += p.work()
		d := ms(time.Since(t0))
		if r == 0 || d < best {
			best = d
		}
	}
	p.samples = append(p.samples, best)
	p.last = time.Now()
}

// tick samples the probe if probeEvery has passed since the last sample
// and returns the segment the next op belongs to. A nil probe (the
// traced replays) does nothing.
func (p *speedProbe) tick() int {
	if p == nil {
		return 0
	}
	if time.Since(p.last) >= probeEvery {
		p.sample()
	}
	return len(p.samples) - 1
}

// scales closes the last segment with a final sample and returns each
// segment's factor from wall time to reference-box time.
func (p *speedProbe) scales() []float64 {
	p.sample()
	n := len(p.samples) - 1
	out := make([]float64, n)
	for k := range out {
		lo, hi := max(0, k+1-probeHalf), min(len(p.samples), k+1+probeHalf)
		out[k] = probeRefMS / median(p.samples[lo:hi])
	}
	return out
}

// probeMS is the median probe time of the run.
func (p *speedProbe) probeMS() float64 { return median(p.samples) }

// scaleAll turns wall times (ms) taken in the given segments into
// reference-box times.
func scaleAll(wall []float64, seg []int, scales []float64) []float64 {
	out := make([]float64, len(wall))
	for i, w := range wall {
		out[i] = w * scales[seg[i]]
	}
	return out
}

// medianThroughput is the ops per second of a closed loop in which every
// op of a group takes the group's median time (ms): robust to the odd op
// that a collection or a preemption lengthens.
func medianThroughput(groups map[string][]float64) float64 {
	n, total := 0, 0.0
	for _, xs := range groups {
		n += len(xs)
		total += float64(len(xs)) * median(xs)
	}
	if total == 0 {
		return 0
	}
	return float64(n) / total * 1000
}

// opClock times one op as the shorter of its wall time and the CPU time
// the whole process used meanwhile. Another process preempting the
// benchmark on its core lengthens the wall time but not the CPU time; a
// collection running on the other core lengthens the CPU time but not
// the wall time. Neither is the op's own cost.
type opClock struct {
	wall time.Time
	cpu  time.Duration
}

func startOp() opClock { return opClock{wall: time.Now(), cpu: processCPU()} }

// ms returns the op's time so far in milliseconds.
func (c opClock) ms() float64 {
	wall := ms(time.Since(c.wall))
	if c.cpu < 0 {
		return wall
	}
	end := processCPU()
	if end < 0 {
		return wall
	}
	return min(wall, ms(end-c.cpu))
}
