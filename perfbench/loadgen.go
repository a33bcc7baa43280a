package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// req is one encoded request of a phase.
type req struct {
	id    int64
	kind  opKind
	line  []byte
	due   int64 // open loop: ns after the phase starts
	write bool  // a delta op
	keep  bool  // keep the reply for the correctness gate
}

// rec is the client-side span of one request: when it was due, when the
// generator sent it, and when its reply arrived, in ns after the phase
// start. In the closed loop a request is due when it is sent.
type rec struct {
	id              int64
	kind            opKind
	due, sent, done int64
	out             outcome
	write           bool
	line, reply     []byte // kept requests only
}

// phase is one finished load phase.
type phase struct {
	name    string
	recs    []rec
	late    []int64 // open loop: how late the generator fired each request, ns
	elapsed time.Duration
	steal   []stealSample // host CPU and steal ticks over the phase
}

// stealSample is a /proc/stat reading t ns after the phase started.
type stealSample struct {
	t int64
	cpuTicks
}

// stealEvery is how often a phase samples the host's steal counter.
const stealEvery = 100 * time.Millisecond

// sampleSteal records the host's CPU and steal ticks every stealEvery
// until stop is closed; done is closed once it has returned.
func sampleSteal(start time.Time, stop <-chan struct{}) (samples *[]stealSample, done <-chan struct{}) {
	out := &[]stealSample{{0, hostSteal()}}
	fin := make(chan struct{})
	go func() {
		defer close(fin)
		tick := time.NewTicker(stealEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				*out = append(*out, stealSample{time.Since(start).Nanoseconds(), hostSteal()})
				return
			case <-tick.C:
				*out = append(*out, stealSample{time.Since(start).Nanoseconds(), hostSteal()})
			}
		}
	}()
	return out, fin
}

// tally counts requests sent, answered, failed and refused.
func tally(recs []rec) (sent, ok, failed, rejected int64) {
	for _, r := range recs {
		sent++
		switch r.out {
		case outOK:
			ok++
		case outFailed:
			failed++
		case outRejected:
			rejected++
		}
	}
	return
}

// throughput is the phase's requests per second of the wall time the
// hypervisor left the VM: the elapsed time less the share of the VM's busy
// CPU time it stole meanwhile.
func (ph *phase) throughput() float64 {
	return float64(len(ph.recs)) / (ph.elapsed.Seconds() * (1 - ph.stealShare()))
}

// stealShare is the share of the VM's busy CPU time the hypervisor
// stole during the phase (cpuTicks.stolen).
func (ph *phase) stealShare() float64 {
	if len(ph.steal) < 2 {
		return 0
	}
	return ph.steal[len(ph.steal)-1].stolen(ph.steal[0].cpuTicks)
}

// closedLoop runs reqs with the given number of clients, each sending its
// next request only once its previous one was answered. Requests are
// taken in sequence order, so the stream is the same on every run.
func closedLoop(t transport, name string, reqs []req, clients int) *phase {
	ph := &phase{name: name, recs: make([]rec, len(reqs))}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	stop := make(chan struct{})
	steal, stealDone := sampleSteal(start, stop)
	defer func() { close(stop); <-stealDone; ph.steal = *steal }()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				sent := time.Since(start).Nanoseconds()
				ph.recs[i] = send(t, reqs[i], start, sent, sent)
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	return ph
}

// openLoop sends every request at its due time whether or not earlier
// ones were answered (independent users), and times each from when it
// was due, so a stall is charged to every request it delays. The only
// concurrency limit is the transport's own (two HTTP connections, or
// afserve's -j slots behind the pipe).
func openLoop(t transport, name string, reqs []req) *phase {
	ph := &phase{name: name, recs: make([]rec, len(reqs)), late: make([]int64, len(reqs))}
	var wg sync.WaitGroup
	start := time.Now()
	stop := make(chan struct{})
	steal, stealDone := sampleSteal(start, stop)
	defer func() { close(stop); <-stealDone; ph.steal = *steal }()
	for i := range reqs {
		sleepUntil(start, reqs[i].due)
		fired := time.Since(start).Nanoseconds()
		ph.late[i] = fired - reqs[i].due
		wg.Add(1)
		go func(i int, fired int64) {
			defer wg.Done()
			ph.recs[i] = send(t, reqs[i], start, reqs[i].due, fired)
		}(i, fired)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	return ph
}

// sleepUntil blocks until due ns after start. It sleeps in nanosleep(2)
// rather than on a runtime timer: an idle Go runtime rounds timer waits
// up to whole milliseconds, which would make the generator fire up to a
// millisecond late and charge that to every open-loop latency.
func sleepUntil(start time.Time, due int64) {
	for {
		d := due - time.Since(start).Nanoseconds()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops to re-check the clock
	}
}

func send(t transport, r req, start time.Time, due, sent int64) rec {
	reply, status, err := t.call(r.id, r.line)
	out := rec{id: r.id, kind: r.kind, due: due, sent: sent, done: time.Since(start).Nanoseconds(),
		out: classify(reply, status, err), write: r.write}
	if r.keep {
		out.line, out.reply = r.line, reply
	}
	return out
}

// latencies returns the due-to-reply latencies of the phase's reads (or
// writes) in ns. Each latency is scaled by 1 − the share of busy CPU
// time the hypervisor stole in the stealWindow it was due in, the same
// rule throughput applies to the wall clock: what is left is the time
// the VM was given. A failed or refused request counts as missing every
// latency limit, so it is recorded as the longest possible latency.
func (ph *phase) latencies(writes bool) []int64 {
	stolen := ph.stolenBy(stealWindow)
	var out []int64
	for _, r := range ph.recs {
		if r.write != writes {
			continue
		}
		if r.out != outOK {
			out = append(out, 1<<62)
			continue
		}
		given := 1 - stolen[min(int(r.due/int64(stealWindow)), len(stolen)-1)]
		out = append(out, int64(math.Round(float64(r.done-r.due)*given)))
	}
	return out
}

// stealWindow is the stretch of time a latency's steal correction is
// measured over: ten steal samples and up to 200 CPU ticks, short
// against the host's steal spells, which last minutes.
const stealWindow = time.Second

// stolenBy returns the share of the VM's busy CPU time the hypervisor
// stole (cpuTicks.stolen) in each span-long stretch of the phase.
func (ph *phase) stolenBy(span time.Duration) []float64 {
	n := max(int((ph.elapsed+span-1)/span), 1)
	steal, busy := make([]float64, n), make([]float64, n)
	for i := 1; i < len(ph.steal); i++ {
		a, b := ph.steal[i-1], ph.steal[i]
		k := min(int(a.t/int64(span)), n-1)
		steal[k] += b.steal - a.steal
		busy[k] += b.busy - a.busy
	}
	for k := range steal {
		steal[k] = ratio(steal[k], busy[k])
	}
	return steal
}

// windowed splits latencies (in send order) into consecutive windows of
// at least window samples, takes each window's qBP percentile, and
// returns the acrossBP nearest-rank quantile of those (5000: their
// median). With window = 1000 every window's p99 has 10 samples beyond
// it; a stall confined to one window moves that window only.
func windowed(lat []int64, qBP, window, acrossBP int) (float64, error) {
	k := max(len(lat)/window, 1)
	vals := make([]float64, 0, k)
	for w := 0; w < k; w++ {
		p, err := percentile(sortedMs(lat[w*len(lat)/k:(w+1)*len(lat)/k]), qBP)
		if err != nil {
			return 0, err
		}
		vals = append(vals, p)
	}
	sort.Float64s(vals)
	return vals[max((k*acrossBP+9999)/10000, 1)-1], nil
}

// serviceNs sums reply − sent over the phase's reads: the client-seen
// time of each request excluding any wait before the generator sent it.
func (ph *phase) serviceNs() (sum float64, n int) {
	for _, r := range ph.recs {
		if !r.write {
			sum += float64(r.done - r.sent)
			n++
		}
	}
	return sum, n
}
