// Command perfbench is the repository benchmark: three YCSB workloads over a
// dataset larger than PM, driven through the public pmblade API. NOTES.md
// describes the workloads, the metric definitions and how to run it.
//
// Usage:
//
//	perfbench --workload read_mostly --seed 1 --seconds 10 --trace 0 [--out DIR]
//
// The last line of standard output is one JSON object with the run's
// correctness, op counts and metrics: the end-to-end metrics with --trace 0,
// the per-layer metrics of a traced run with --trace 1. Lines before it,
// starting with '#', are for people.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"pmblade"
	"pmblade/internal/clock"
	"pmblade/internal/device"
)

const (
	warmup         = 2 * time.Second
	setups         = 4     // set-ups per untraced run; setup_s is their median
	opsPerSecond   = 40000 // stream length per client per second of running; a client that runs out wraps
	probeOps       = 3000  // ops per probe of an op type under minShare of the mix
	minShare       = 10    // percent of a workload's ops an op type needs to be timed in the loop
	traceFlipEvery = 100 * time.Millisecond
)

func main() {
	name := flag.String("workload", "", "workload name: update_heavy, read_mostly or scan_mostly")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	out := flag.String("out", ".", "directory for the span file of a traced run")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	// The simulated devices keep their contents on the heap, about 0.75 GiB
	// after set-up and up to 1.3 GiB at the end of update_heavy. A lower GC
	// target keeps the peak resident size near 2 GiB instead of 3.
	debug.SetGCPercent(50)
	calibrate()
	dur := time.Duration(*seconds) * time.Second
	perClient := int((warmup + dur).Seconds() * opsPerSecond)
	d := newDataset(w, *seed, perClient, probeOps)
	var (
		r   result
		err error
	)
	if *trace == 0 {
		r, err = measure(w, d, dur)
	} else {
		r, err = traced(w, d, dur, filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl.gz", w.name, *seed)))
	}
	if err == nil {
		err = r.write(os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// info prints a line for people before the result line.
func info(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

// calibrate runs clock.Calibrate until a check of clock.Spin agrees with its
// nominal length. PM charges under 2µs are spun by the calibrated loop, and
// one calibration can misjudge the loop's rate by 40%, which rescales every
// PM read of the run. The attempts and the final check are printed, and the
// run's pmem.read_ns shows what remains.
func calibrate() {
	const nominal, n, tries = 300 * time.Nanosecond, 20000, 20
	var r float64
	attempt := 0
	for attempt < tries {
		attempt++
		clock.Calibrate()
		start := time.Now()
		for i := 0; i < n; i++ {
			clock.Spin(nominal)
		}
		r = float64(time.Since(start)) / float64(n*nominal)
		if r >= 0.97 && r <= 1.05 {
			break
		}
	}
	info("clock calibration: %d attempt(s), Spin(%v) takes %.3f of nominal", attempt, nominal, r)
}

// phase is the timed run of the loop clients over a set-up database.
type phase struct {
	loop    []*client
	a, b    snapshot // around the timed phase
	elapsed time.Duration
	flip    *flipper // traced run only
}

// drive warms the database up and runs the loop clients for dur. traceOn,
// when non-nil, traces every client, and the timed phase alternates traced
// and untraced windows.
func drive(db *pmblade.DB, w workload, d *dataset, dur time.Duration, traceOn *atomic.Bool, epoch time.Time) (*phase, []*tracer) {
	p := &phase{}
	var tracers []*tracer
	for i := 0; i < w.clients; i++ {
		c := newClient(db, d, d.streams[i])
		if traceOn != nil {
			t := newTracer(epoch, i)
			c.tr = &clientTrace{tracer: t, on: traceOn, db: db}
			tracers = append(tracers, t)
		}
		p.loop = append(p.loop, c)
	}

	runClients(p.loop, time.Now().Add(warmup))
	if traceOn != nil {
		// The device keeps one latency histogram; the traced run reports it
		// over the timed phase only.
		db.Engine().SSDDevice().IOLatency().Reset()
	}
	p.a = takeSnapshot(db)
	for _, c := range p.loop {
		c.record = true
	}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	if traceOn != nil {
		p.flip = &flipper{flag: traceOn}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.flip.run(traceFlipEvery, deadline)
		}()
	}
	runClients(p.loop, deadline)
	p.elapsed = time.Since(start)
	wg.Wait()
	p.b = takeSnapshot(db)
	return p, tracers
}

var opNames = [numOpKinds]string{"read", "write", "write", "scan"}

// latencyMetrics reports the median and 95th percentile of reads, writes
// and scans. An op type with at least minShare of the mix is timed in the
// loop; a rarer one by the probes, which ran on freshly set-up databases.
func latencyMetrics(w workload, p *phase, probe *client, values map[string]float64) {
	for _, k := range []opKind{opRead, opUpdate, opScan} {
		src, from := p.loop, "loop"
		if w.share(k) < minShare {
			src, from = []*client{probe}, "probe"
		}
		lat := latencies(src, k)
		name := opNames[k]
		values[name+"_p50_us"] = float64(percentile(lat, 0.50)) / 1e3
		values[name+"_p95_us"] = float64(percentile(lat, 0.95)) / 1e3
		info("%s latency from the %s: %d samples, p50 %.1fus p95 %.1fus p99 %.1fus", name, from, len(lat),
			values[name+"_p50_us"], values[name+"_p95_us"], float64(percentile(lat, 0.99))/1e3)
	}
}

// report prints the human-readable summary of a phase and returns its op
// counts.
func report(cs []*client, p *phase, lm map[string]float64) (attempted, failed int64) {
	attempted, failed, first := tally(cs)
	info("timed phase %.2fs; device busy: pmem %.3fs ssd %.3fs", p.elapsed.Seconds(), lm["pmem.busy_s"], lm["ssd.busy_s"])
	info("gets by tier: memtable %.3f pm %.3f ssd %.3f; misses %d",
		lm["engine.get_tier_memtable_frac"], lm["engine.get_tier_pm_frac"], lm["engine.get_tier_ssd_frac"],
		p.b.tags[tagReadMiss]-p.a.tags[tagReadMiss])
	info("compactions in the timed phase: flush %.0f internal %.0f major %.0f",
		lm["compaction.flush_count"], lm["compaction.internal_count"], lm["compaction.major_count"])
	if first != nil {
		info("first failure: %v", first)
	}
	info("error_rate %g (%d of %d ops failed)", ratio(float64(failed), float64(attempted)), failed, attempted)
	return attempted, failed
}

// heapMB forces a garbage collection and returns the live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// measure is the untraced run: it reports the end-to-end metrics. It sets
// the database up several times: the probes run on every set-up but the
// last, which serves the timed phase.
func measure(w workload, d *dataset, dur time.Duration) (result, error) {
	values := map[string]float64{}
	var db *pmblade.DB
	var times []int64
	var heaps []float64
	probe := newClient(nil, d, nil)
	probe.record = true
	for i := 0; i < setups; i++ {
		var took time.Duration
		var err error
		if db, took, err = setup(d); err != nil {
			return result{}, err
		}
		times = append(times, int64(took))
		heaps = append(heaps, heapMB())
		if i == setups-1 {
			break
		}
		probe.db = db
		for k := range d.probes {
			for j := range d.probes[k] {
				probe.do(&d.probes[k][j])
			}
		}
		probe.db = nil
		if err := db.Close(); err != nil {
			return result{}, fmt.Errorf("close after set-up: %w", err)
		}
	}
	defer db.Close()
	values["setup_s"] = median(times) / 1e9
	values["live_heap_mb"] = median(heaps)
	info("set-up: %v ns; live heap after set-up: %.1f MiB", times, heaps)

	p, _ := drive(db, w, d, dur, nil, time.Time{})
	values["throughput_ops_s"] = float64(recorded(p.loop)) / p.elapsed.Seconds()
	latencyMetrics(w, p, probe, values)

	eng := db.Engine()
	values["write_amp"] = db.WriteAmp().Factor()
	// The engine never checkpoints here, so every WAL byte written is still
	// on the SSD; subtracting them leaves the table data.
	ssdData := eng.SSDDevice().UsedBytes() - eng.SSDDevice().Stats().WriteBytes(device.CauseWAL)
	live := int64(numRecords+insertedKeys(p.loop)) * int64(len(d.keys[0])+valueSize)
	values["space_amp"] = float64(eng.PMUsed()+ssdData) / float64(live)

	attempted, failed := report(append([]*client{probe}, p.loop...), p, layerMetrics(p.a, p.b, nil, recorded(p.loop), 0))
	rp, _, err := replayPMRead(newTracer(time.Now(), -1), d)
	if err != nil {
		return result{}, err
	}
	info("pmem.read_ns %.1f (replayed 64 B ReadAt on the Optane profile)", rp)
	return newResult(endToEnd, values, attempted, failed)
}

// traced is the traced run: one set-up, then the timed phase alternating
// traced and untraced windows, then the layer replays.
func traced(w workload, d *dataset, dur time.Duration, spanFile string) (result, error) {
	db, _, err := setup(d)
	if err != nil {
		return result{}, err
	}
	defer db.Close()
	epoch := time.Now()
	var on atomic.Bool
	p, tracers := drive(db, w, d, dur, &on, epoch)

	var calls []span
	var tracedOps int64
	for _, t := range tracers {
		for _, s := range t.spans {
			if s.parent >= 0 {
				calls = append(calls, s)
			} else {
				tracedOps++
			}
		}
	}
	var writes int64
	for _, c := range p.loop {
		writes += int64(len(c.lat[opUpdate]))
	}
	ops := recorded(p.loop)
	values := layerMetrics(p.a, p.b, calls, ops, writes)
	values["ssd.io_p99_us"] = float64(db.Engine().SSDDevice().IOLatency().Percentile(0.99)) / 1e3

	// Tracing overhead: throughput of the traced windows of the timed phase
	// against its untraced windows.
	tracedRate := ratio(float64(tracedOps), p.flip.onTime.Seconds())
	untracedRate := ratio(float64(ops-tracedOps), p.flip.offTime.Seconds())
	values["trace.overhead_frac"] = 1 - ratio(tracedRate, untracedRate)
	info("traced %.0f ops/s, untraced %.0f ops/s", tracedRate, untracedRate)

	attempted, failed := report(p.loop, p, values)
	rt := newTracer(epoch, len(tracers))
	replayed, err := replayLayers(rt, d)
	if err != nil {
		return result{}, err
	}
	for k, v := range replayed {
		values[k] = v
	}
	if err := writeSpans(spanFile, append(tracers, rt)); err != nil {
		return result{}, err
	}
	info("spans written to %s", spanFile)
	return newResult(perLayer, values, attempted, failed)
}
