package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"sync"
	"time"

	"github.com/factorable/weakkeys/internal/batchgcd"
	"github.com/factorable/weakkeys/internal/certs"
	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/zscan"
)

// The scanned fleet. Half its devices hold shared-prime keys: not a
// share any source reports (the paper's is 0.39% of moduli), but what
// gives a run about 320 weak moduli, so the flip and ingest medians rest
// on hundreds and about 80 samples.
const (
	fleetDevices    = 640
	fleetSpace      = 2 * fleetDevices
	fleetVulnerable = 0.5
	// bridgeBatch and bridgeFlush shape ingest deltas: the flush
	// interval is longer than any batch takes to fill at the scan rates
	// used, so every delta but the last is exactly bridgeBatch moduli.
	bridgeBatch = 8
	bridgeFlush = 2 * time.Second
)

// ScanResult is what one scan -> ingest -> verdict-flip phase observed.
// It counts ingest requests and flip and clean checks as attempted.
type ScanResult struct {
	Counts
	Ingest     Sample // per acknowledged POST /v1/ingest
	Flip       Sample // per weak fleet modulus
	BridgeWait Sample // per delivered modulus: harvest to delivery start
}

// fleetTruth is the scanned fleet with what the oracle knows of it:
// every device's modulus, and for each weak one the moduli sharing a
// prime with it.
type fleetTruth struct {
	sim     *zscan.SimFleet
	modulus map[uint64]string   // device index -> modulus hex
	index   map[string]uint64   // modulus hex -> device index
	mates   map[string][]string // weak modulus hex -> cohort mates
}

// newFleet builds seed's fleet and its truth: each device probed once,
// its certificate parsed, and the fleet's moduli batch-GCD factored.
func newFleet(seed int64) (*fleetTruth, error) {
	fleet, err := zscan.NewSimFleet(zscan.FleetOptions{
		Space: fleetSpace, Devices: fleetDevices, Vulnerable: fleetVulnerable, Bits: modulusBits,
		Seed: int64(rngFor(seed, streamFleet, 0).Uint64() >> 1),
	})
	if err != nil {
		return nil, err
	}
	ft := &fleetTruth{sim: fleet, modulus: map[uint64]string{}, index: map[string]uint64{}, mates: map[string][]string{}}
	var ns []*big.Int
	var hexes []string
	for _, idx := range fleet.Indexes() {
		r := fleet.Probe(context.Background(), idx)
		if r.Err != nil {
			return nil, fmt.Errorf("fleet device %d: %w", idx, r.Err)
		}
		c, err := certs.Parse(r.DER)
		if err != nil {
			return nil, err
		}
		h := c.N.Text(16)
		if _, dup := ft.index[h]; dup {
			return nil, fmt.Errorf("fleet modulus repeats at device %d", idx)
		}
		ft.modulus[idx], ft.index[h] = h, idx
		ns = append(ns, c.N)
		hexes = append(hexes, h)
	}
	res, err := batchgcd.Factor(ns)
	if err != nil {
		return nil, err
	}
	byPrime := map[string][]string{}
	for _, r := range res {
		p := r.Divisor.String()
		byPrime[p] = append(byPrime[p], hexes[r.Index])
	}
	for _, cohort := range byPrime {
		for _, h := range cohort {
			for _, m := range cohort {
				if m != h {
					ft.mates[h] = append(ft.mates[h], m)
				}
			}
		}
	}
	return ft, nil
}

// timedProber records when each device was probed.
type timedProber struct {
	zscan.Prober
	mu sync.Mutex
	at map[uint64]time.Time
}

func (p *timedProber) Probe(ctx context.Context, index uint64) zscan.ProbeResult {
	p.mu.Lock()
	p.at[index] = time.Now()
	p.mu.Unlock()
	return p.Prober.Probe(ctx, index)
}

// ingestRecorder wraps the bridge's transport: it times every ingest
// and reports each acknowledged batch to the flip tracker.
type ingestRecorder struct {
	base      http.RoundTripper
	mu        sync.Mutex
	lat       Sample
	failed    int
	started   map[string]time.Time
	delivered chan []string
}

func (r *ingestRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	req.Body = io.NopCloser(bytes.NewReader(body))
	var batch struct {
		ModuliHex []string `json:"moduli_hex"`
	}
	json.Unmarshal(body, &batch)
	t0 := time.Now()
	r.mu.Lock()
	for _, h := range batch.ModuliHex {
		if _, ok := r.started[h]; !ok {
			r.started[h] = t0
		}
	}
	r.mu.Unlock()
	resp, err := r.base.RoundTrip(req)
	lat := time.Since(t0)
	r.mu.Lock()
	ok := err == nil && resp.StatusCode == http.StatusOK
	if ok {
		r.lat = append(r.lat, lat)
	} else {
		r.failed++
	}
	r.mu.Unlock()
	if ok {
		r.delivered <- batch.ModuliHex
	}
	return resp, err
}

// ScanPhase sweeps the fleet with a paced zscan engine whose bridge
// feeds front's /v1/ingest, and times each weak modulus from the probe
// that made it factorable (its own or its first mate's, whichever is
// later) to the first check that answers it compromised.
func ScanPhase(ctx context.Context, front string, seed int64, truth *fleetTruth, dur time.Duration) (*ScanResult, error) {
	prober := &timedProber{Prober: truth.sim, at: map[uint64]time.Time{}}
	rec := &ingestRecorder{
		base:    &http.Transport{MaxConnsPerHost: 1},
		started: map[string]time.Time{},
		// Every batch holds at least one device's modulus, so
		// fleetDevices batches is more than a scan delivers.
		delivered: make(chan []string, fleetDevices),
	}
	bridge, err := zscan.NewBridge(zscan.BridgeOptions{
		URL:           "http://" + front + "/v1/ingest",
		BatchSize:     bridgeBatch,
		FlushInterval: bridgeFlush,
		Seed:          seed,
		Client:        &http.Client{Timeout: 30 * time.Second, Transport: rec},
	})
	if err != nil {
		return nil, err
	}
	eng, err := zscan.New(zscan.Options{
		Space:   fleetSpace,
		Seed:    seed,
		Rate:    float64(fleetSpace) / dur.Seconds(),
		Workers: 2,
		Prober:  prober,
		Store:   scanstore.New(),
		Ingest:  bridge,
	})
	if err != nil {
		return nil, err
	}

	res := &ScanResult{}
	flipped := map[string]time.Time{}
	trackDone := make(chan struct{})
	checker := NewClient(front, 1)
	go func() {
		defer close(trackDone)
		delivered := map[string]bool{}
		for batch := range rec.delivered {
			for _, h := range batch {
				delivered[h] = true
			}
			for h, mates := range truth.mates {
				if _, ok := flipped[h]; ok || !delivered[h] {
					continue
				}
				mateIn := false
				for _, m := range mates {
					mateIn = mateIn || delivered[m]
				}
				if !mateIn {
					continue
				}
				at, err := awaitCompromised(ctx, checker, h)
				res.Attempted++
				if err != nil {
					res.wrong(err)
					flipped[h] = time.Time{}
					continue
				}
				flipped[h] = at
			}
		}
	}()

	_, runErr := eng.Run(ctx)
	bridge.Close()
	close(rec.delivered)
	<-trackDone
	if runErr != nil {
		return nil, runErr
	}
	res.Ingest = rec.lat
	res.Attempted += len(rec.lat) + rec.failed
	res.Failed += rec.failed
	for h, start := range rec.started {
		if at, ok := prober.at[truth.index[h]]; ok {
			res.BridgeWait = append(res.BridgeWait, start.Sub(at))
		}
	}
	// Oracle: every weak modulus flipped, at a time after it became
	// factorable; every other fleet modulus is a clean member.
	for h, mates := range truth.mates {
		at, ok := flipped[h]
		if !ok {
			res.wrong(fmt.Errorf("weak fleet modulus %.16s… never checked compromised", h))
			continue
		}
		if at.IsZero() {
			continue
		}
		ready := prober.at[truth.index[h]]
		first := time.Time{}
		for _, m := range mates {
			if t := prober.at[truth.index[m]]; first.IsZero() || t.Before(first) {
				first = t
			}
		}
		if first.After(ready) {
			ready = first
		}
		res.Flip = append(res.Flip, at.Sub(ready))
	}
	checked := 0
	for _, h := range truth.modulus {
		if _, weak := truth.mates[h]; weak || checked == 16 {
			continue
		}
		checked++
		res.Attempted++
		n, _ := new(big.Int).SetString(h, 16)
		v, err := checker.Check(ctx, Key{N: n}, "")
		if err != nil {
			res.failed(err)
			continue
		}
		if err := Judge(Key{N: n, Want: ClassClean, Known: true}, v); err != nil {
			res.wrong(fmt.Errorf("scanned clean modulus: %w", err))
		}
	}
	return res, nil
}

// awaitCompromised checks h, which has been ingested together with a
// cohort mate, until it answers factored as a known member, returning
// the time of that answer. A clean answer is retried briefly, then
// reported; any other answer is wrong at once.
func awaitCompromised(ctx context.Context, c *Client, h string) (time.Time, error) {
	n, _ := new(big.Int).SetString(h, 16)
	want := Key{N: n, Want: ClassFactored, Known: true}
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := c.Check(ctx, want, "")
		at := time.Now()
		if err != nil {
			return time.Time{}, err
		}
		jerr := Judge(want, v)
		if jerr == nil {
			return at, nil
		}
		if v.Status != string(ClassClean) || at.After(deadline) {
			return time.Time{}, fmt.Errorf("weak fleet modulus after ingest: %w", jerr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
