package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pmblade"
)

// client is one closed-loop client: it issues its next op only after the
// previous one returned and was checked.
type client struct {
	db   *pmblade.DB
	d    *dataset
	ops  []op
	next int
	val  []byte

	record bool                // keep latencies (false during warm-up)
	lat    [numOpKinds][]int64 // call latencies in ns, by op kind

	attempted int64
	failed    int64
	firstErr  error
	inserted  []bool // inserted[i] is set once key numRecords+i was inserted

	tr *clientTrace // nil unless this is the traced run
}

func newClient(db *pmblade.DB, d *dataset, ops []op) *client {
	return &client{db: db, d: d, ops: ops, val: make([]byte, valueSize)}
}

// do executes one op, records its call latency and checks its result. The
// latency covers the pmblade call only, not the check.
func (c *client) do(o *op) {
	var sp *spanScope
	if c.tr != nil && c.tr.on.Load() {
		sp = c.tr.beginOp(o.kind)
	}
	key := c.d.keys[o.key]
	var (
		v    []byte
		ok   bool
		rows []pmblade.KV
		err  error
	)
	if o.kind == opUpdate || o.kind == opInsert {
		writeValue(c.val, c.d.pool, o)
	}
	if sp != nil {
		sp.beginCall()
	}
	t0 := time.Now()
	switch o.kind {
	case opRead:
		v, ok, err = c.db.Get(key)
	case opUpdate, opInsert:
		err = c.db.Put(key, c.val)
	case opScan:
		rows, err = c.db.Scan(key, nil, int(o.scanLen))
	}
	lat := time.Since(t0)
	if sp != nil {
		sp.endCall()
	}
	if err == nil {
		switch o.kind {
		case opRead:
			if !ok {
				err = fmt.Errorf("get %q: %w", key, errMissing)
			} else if cerr := checkValue(v, uint64(o.key)); cerr != nil {
				err = fmt.Errorf("get %q: %w", key, cerr)
			}
		case opScan:
			if cerr := checkScan(c.d, rows, o.key, int(o.scanLen)); cerr != nil {
				err = fmt.Errorf("scan from %q limit %d: %w", key, o.scanLen, cerr)
			}
		}
	}
	c.attempted++
	if err == nil && o.kind == opInsert {
		if c.inserted == nil {
			c.inserted = make([]bool, len(c.d.keys)-numRecords)
		}
		c.inserted[o.key-numRecords] = true
	}
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
	}
	k := o.kind
	if k == opInsert {
		k = opUpdate
	}
	if c.record {
		c.lat[k] = append(c.lat[k], int64(lat))
	}
	if sp != nil {
		sp.endOp()
	}
}

// runUntil issues ops from the client's stream until the deadline passes.
// A client that exhausts its stream starts it over.
func (c *client) runUntil(deadline time.Time) {
	for time.Now().Before(deadline) {
		c.do(&c.ops[c.next])
		c.next++
		if c.next == len(c.ops) {
			c.next = 0
		}
	}
}

// runClients runs every client until the deadline and waits for them.
func runClients(cs []*client, deadline time.Time) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.runUntil(deadline)
		}(c)
	}
	wg.Wait()
}

// percentile returns the q-quantile (0 < q < 1) of sorted samples by the
// nearest-rank method.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// latencies merges the samples of one op kind across clients and sorts
// them.
func latencies(cs []*client, k opKind) []int64 {
	var all []int64
	for _, c := range cs {
		all = append(all, c.lat[k]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// recorded counts the ops the clients recorded.
func recorded(cs []*client) int64 {
	var n int64
	for _, c := range cs {
		for k := range c.lat {
			n += int64(len(c.lat[k]))
		}
	}
	return n
}

// tally sums the attempted and failed ops of the clients and returns the
// first failure seen.
func tally(cs []*client) (attempted, failed int64, first error) {
	for _, c := range cs {
		attempted += c.attempted
		failed += c.failed
		if first == nil {
			first = c.firstErr
		}
	}
	return attempted, failed, first
}

// insertedKeys counts the distinct keys the clients inserted.
func insertedKeys(cs []*client) int {
	n := 0
	for i := 0; ; i++ {
		more, set := false, false
		for _, c := range cs {
			if i < len(c.inserted) {
				more = true
				set = set || c.inserted[i]
			}
		}
		if !more {
			return n
		}
		if set {
			n++
		}
	}
}

// flipper alternates a flag every period until stopped, and accumulates the
// time spent with the flag on and off. The traced run uses it to interleave
// traced and untraced windows, so drift in the database's state affects both
// modes alike.
type flipper struct {
	flag    *atomic.Bool
	onTime  time.Duration
	offTime time.Duration
}

func (f *flipper) run(period time.Duration, deadline time.Time) {
	last := time.Now()
	for {
		now := time.Now()
		if !now.Before(deadline) {
			break
		}
		wait := period
		if rest := deadline.Sub(now); rest < wait {
			wait = rest
		}
		time.Sleep(wait)
		now = time.Now()
		if f.flag.Load() {
			f.onTime += now.Sub(last)
		} else {
			f.offTime += now.Sub(last)
		}
		last = now
		f.flag.Store(!f.flag.Load())
	}
}
