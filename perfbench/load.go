package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/factorable/weakkeys/internal/telemetry"
)

// Counts tallies attempted work and what went wrong with it.
type Counts struct {
	Attempted int
	Failed    int // transport or HTTP failures, refusals, sheds
	Wrong     int // answers the oracle rejects
	Errs      []error
}

// note keeps the first few errors for the report.
func (c *Counts) note(err error) {
	if len(c.Errs) < 8 {
		c.Errs = append(c.Errs, err)
	}
}

func (c *Counts) failed(err error) {
	c.Failed++
	c.note(err)
}

func (c *Counts) wrong(err error) {
	c.Wrong++
	c.note(err)
}

func (c *Counts) add(o Counts) {
	c.Attempted += o.Attempted
	c.Failed += o.Failed
	c.Wrong += o.Wrong
	c.Errs = append(c.Errs, o.Errs...)
}

// Tally is what one load phase observed.
type Tally struct {
	Counts
	Lat     Sample // per successful check
	Lag     Sample // open loop only: how late each request was sent
	Elapsed time.Duration
	mu      sync.Mutex
}

func (t *Tally) record(k Key, v Verdict, err error, lat time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Attempted++
	if err != nil {
		t.failed(err)
		return
	}
	t.Lat = append(t.Lat, lat)
	if err := Judge(k, v); err != nil {
		t.wrong(err)
	}
}

// spanCheck sends one check inside a request span when tr is set; the
// span's ID travels as X-Request-Id.
func spanCheck(ctx context.Context, c *Client, tr *telemetry.Tracer, i int, k Key) (Verdict, error) {
	if tr == nil {
		return c.Check(ctx, k, "")
	}
	id := fmt.Sprintf("bench-%08d", i)
	sp := tr.Start("http.check")
	sp.SetArg("request_id", id)
	sp.SetArg("want", string(k.Want))
	v, err := c.Check(ctx, k, id)
	sp.End()
	return v, err
}

// OpenLoop sends keys at rate checks per second regardless of replies,
// over conns connections. Latency runs from each request's due time, so
// a stall also charges the requests queued behind it.
func OpenLoop(ctx context.Context, c *Client, tr *telemetry.Tracer, conns int, rate float64, keys []Key) *Tally {
	n := len(keys)
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job, n)
	t := &Tally{}
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				lag := time.Since(j.due)
				k := keys[j.i]
				v, err := spanCheck(ctx, c, tr, j.i, k)
				lat := time.Since(j.due)
				t.mu.Lock()
				t.Lag = append(t.Lag, lag)
				t.mu.Unlock()
				t.record(k, v, err, lat)
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	t.Elapsed = time.Since(start)
	return t
}

// ClosedLoop sends each key once from conns clients back to back, and
// stops early only if limit runs out first.
func ClosedLoop(ctx context.Context, c *Client, tr *telemetry.Tracer, conns int, limit time.Duration, keys []Key) *Tally {
	t := &Tally{}
	var next atomic.Int64
	deadline := time.Now().Add(limit)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(keys) {
					return
				}
				k := keys[i]
				t0 := time.Now()
				v, err := spanCheck(ctx, c, tr, i, k)
				t.record(k, v, err, time.Since(t0))
			}
		}()
	}
	wg.Wait()
	t.Elapsed = time.Since(start)
	return t
}

// merge adds a later segment of the same phase to t.
func (t *Tally) merge(o *Tally) {
	t.Counts.add(o.Counts)
	t.Lat = append(t.Lat, o.Lat...)
	t.Lag = append(t.Lag, o.Lag...)
	t.Elapsed += o.Elapsed
}

// Throughput is completed checks per second.
func (t *Tally) Throughput() float64 {
	return float64(len(t.Lat)) / t.Elapsed.Seconds()
}
