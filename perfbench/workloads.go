package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/factorable/weakkeys/internal/telemetry"
)

// Workload fixes one traffic mix. Rates were set once, at about a third
// of the closed-loop checks_per_s each workload reached on this
// benchmark's first commit (2 cores; for members, with the scan's cache
// purges running, as they do during its open loop), and are never
// derived at run time.
type Workload struct {
	Name string
	// Rate is the open-loop offered load in checks/s.
	Rate float64
	// ClosedRate is the closed-loop checks/s this workload reached when
	// its closed loop was sized, fixed like Rate. The closed loop sends
	// ClosedRate times its share of the read time in checks, a count
	// rather than a time: members' cache fills request by request, so a
	// loop timed by the clock gives a slow host a colder cache as well.
	ClosedRate float64
	// Novel reads fresh novel keys, so the verdict cache must see no
	// hit, and scans only after the reads. Otherwise the reads are
	// Zipf-ranked corpus members, which must hit the cache, with the
	// scan running beside them.
	Novel bool
	// Rounds splits the reads into rounds of open then closed loop.
	// members reads in one, as its closed loop must follow the scan.
	Rounds int
}

var workloads = []Workload{
	{Name: "novel", Rate: 45, ClosedRate: 165, Novel: true, Rounds: 3},
	{Name: "members", Rate: 200, ClosedRate: 2250, Rounds: 1},
}

const (
	// corpusSize is the number of moduli in the served corpus.
	corpusSize = 20000
	// serverSubsets is keyserverd's default batch GCD subset count k,
	// which its start-up analysis runs with.
	serverSubsets = 3
	conns         = 2
	// setupLaunches is how many times a run starts its server: setup_s
	// is the median, and the last launch serves the run.
	setupLaunches = 3
	// postReadScan is the scan phase's length when it follows the reads.
	postReadScan = 14 * time.Second
	// cacheRefill is how many untimed closed-loop checks refill the
	// verdict cache before members' throughput is timed (about 3 s of
	// it). A count, not a time: a refill timed by the clock leaves a
	// slow host a colder cache, and its lower hit ratio a lower
	// throughput still.
	cacheRefill = 8000
)

// phases of a run; each draws its keys from its own stream, so no two
// phases share a novel key.
const (
	phaseOpen uint64 = iota
	phaseUntraced
	phaseConnWarm
	phaseRefill
	phaseClosed
	phaseRouted
)

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Inputs are everything a run generates from its seed before timing.
type Inputs struct {
	Corpus *Corpus
	// ServerArgs start keyserverd on the saved corpus.
	ServerArgs []string
	// Fleet is what the scan phase sweeps.
	Fleet *fleetTruth
	// Keys holds each phase's requests.
	Keys   map[uint64][]Key
	params map[string]any
}

// readTimes splits a run's read time: the open loop gets 60%, since its
// percentiles need samples.
func readTimes(seconds int) (open, closed time.Duration) {
	open = time.Duration(seconds) * time.Second * 6 / 10
	return open, time.Duration(seconds)*time.Second - open
}

// prepare makes a run's corpus, saved for keyserverd -load, the scanned
// fleet and every request key, outside every timed phase.
func prepare(w Workload, seed int64, seconds int, workDir string) (*Inputs, error) {
	c := GenCorpus(seed, corpusSize)
	path := filepath.Join(workDir, "corpus.bin")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := c.Store.Save(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fleet, err := newFleet(seed)
	if err != nil {
		return nil, err
	}
	openFor, closedFor := readTimes(seconds)
	nOpen := int(w.Rate * openFor.Seconds())
	sizes := map[uint64]int{
		phaseOpen:     nOpen,
		phaseUntraced: nOpen,
		phaseConnWarm: 2 * conns,
		phaseClosed:   int(w.ClosedRate * closedFor.Seconds()),
	}
	if !w.Novel {
		sizes[phaseRefill] = cacheRefill
	}
	keys := map[uint64][]Key{}
	for phase, n := range sizes {
		keys[phase] = KeyMix(seed, w, c, phase, n)
	}
	return &Inputs{
		Corpus:     c,
		ServerArgs: []string{"-load", path, "-bits", strconv.Itoa(modulusBits)},
		Fleet:      fleet,
		Keys:       keys,
		params:     map[string]any{"rate_per_s": w.Rate, "novel": w.Novel, "conns": conns, "corpus_moduli": corpusSize},
	}, nil
}

// KeyMix is n requests of one phase: fresh novel keys for a novel
// workload, otherwise members drawn with a Zipf skew over a seeded
// ranking of the whole corpus, so popular keys repeat while the working
// set is larger than the verdict cache. Every phase of a run shares the
// ranking.
func KeyMix(seed int64, w Workload, c *Corpus, phase uint64, n int) []Key {
	if w.Novel {
		return NovelKeys(seed, phase<<32, n, c.Weak)
	}
	rank := rngFor(seed, streamMix, 0).Perm(len(c.Members))
	z := rand.NewZipf(rngFor(seed, streamMix, phase+1), zipfS, 1, uint64(len(c.Members)-1))
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = c.Members[rank[z.Uint64()]]
	}
	return keys
}

// Metric is one named measurement.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Outcome is one run's result.
type Outcome struct {
	Counts
	Metrics []Metric
	Detail  map[string]any
}

func (o *Outcome) metric(name string, v float64, unit string) {
	o.Metrics = append(o.Metrics, Metric{name, v, unit})
}

// Serve runs a workload's timed phases: set-up launches, the open loop
// at the workload's fixed rate, the closed loop at conns connections,
// and the scan -> ingest -> flip phase. With a tracer the open loop runs
// twice, untraced then traced, and the traced-run extras are measured.
func Serve(ctx context.Context, w Workload, seed int64, seconds int, in *Inputs, tr *telemetry.Tracer, binDir, workDir string) (*Outcome, error) {
	out := &Outcome{Detail: map[string]any{}}
	openFor, closedFor := readTimes(seconds)
	launches := setupLaunches
	if tr != nil {
		launches = 1
	}
	var setups []float64
	var srv *Server
	for i := 0; i < launches; i++ {
		s, err := launch(ctx, binDir, workDir, strconv.Itoa(i), in.ServerArgs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.Setup.Seconds())
		if i < launches-1 {
			s.Stop()
			continue
		}
		srv = s
	}
	defer func() {
		if srv != nil {
			srv.Stop()
		}
	}()
	client := NewClient(srv.Addr, conns)
	// Warm the connections (and nothing else: members' warm-up keys are
	// too few to matter to the cache, and novel ones are never reused).
	for _, k := range in.Keys[phaseConnWarm] {
		if _, err := client.Check(ctx, k, ""); err != nil {
			return nil, fmt.Errorf("warm-up check: %w", err)
		}
	}
	h0, m0, err := client.CacheStats(ctx)
	if err != nil {
		return nil, err
	}
	scanDone := make(chan struct{})
	var scan *ScanResult
	var scanErr error
	runScan := func(d time.Duration) {
		defer close(scanDone)
		scan, scanErr = ScanPhase(ctx, srv.Addr, seed, in.Fleet, d)
	}
	if !w.Novel {
		// The scan runs beside the open loop, so its ingests compete
		// with a fixed read load and each publish's cache purge shows in
		// read latency.
		reads := openFor
		if tr != nil {
			reads += openFor
		}
		go runScan(reads * 9 / 10)
	}

	if tr != nil {
		base := OpenLoop(ctx, client, nil, conns, w.Rate, in.Keys[phaseUntraced])
		out.Counts.add(base.Counts)
		out.Detail["untraced_check_p50_ms"] = ms(base.Lat.Quantile(50))
	}
	// The reads run in rounds of an open-loop and a closed-loop segment,
	// so each figure spans the whole read time, not one stretch of it:
	// on a shared host, speed wanders over a few seconds at a time.
	open, closed := &Tally{}, &Tally{}
	round := func(keys []Key, r int) []Key { return keys[r*len(keys)/w.Rounds : (r+1)*len(keys)/w.Rounds] }
	for r := 0; r < w.Rounds; r++ {
		open.merge(OpenLoop(ctx, client, tr, conns, w.Rate, round(in.Keys[phaseOpen], r)))
		if !w.Novel {
			// Throughput is timed with the verdict cache in its steady
			// state: once the scan's purges stop, an untimed stretch of
			// the same stream refills it. Timed from a cold or
			// half-purged cache, throughput fed back into its own hit
			// ratio and spread 0.27-0.36 over ten seeds.
			<-scanDone
			warm := ClosedLoop(ctx, client, nil, conns, 5*closedFor, in.Keys[phaseRefill])
			out.Counts.add(warm.Counts)
		}
		// A closed loop five times slower than sized is cut short, so
		// the run still ends in time.
		closed.merge(ClosedLoop(ctx, client, tr, conns, 5*closedFor/time.Duration(w.Rounds), round(in.Keys[phaseClosed], r)))
	}
	out.Counts.add(open.Counts)
	out.Counts.add(closed.Counts)
	if tr != nil {
		out.metric("trace.overhead_ratio", ms(open.Lat.Quantile(50))/out.Detail["untraced_check_p50_ms"].(float64), "ratio")
	}
	if closed.Attempted < len(in.Keys[phaseClosed]) {
		out.Detail["closed_cut_short"] = true
	}
	h1, m1, err := client.CacheStats(ctx)
	if err != nil {
		return nil, err
	}
	if w.Novel {
		go runScan(postReadScan)
	}
	<-scanDone
	if scanErr != nil {
		return nil, fmt.Errorf("scan phase: %w", scanErr)
	}
	out.Counts.add(scan.Counts)

	hitRatio := float64(h1-h0) / float64(max(h1-h0+m1-m0, 1))
	out.Detail["cache_hit_ratio"] = hitRatio
	if w.Novel == (hitRatio > 0) {
		out.wrong(fmt.Errorf("cache guard: %s read phases had cache-hit ratio %.4f", w.Name, hitRatio))
	}
	// The check tail is reported beside the metrics, not as one: on a
	// shared 2-core host its spread over seeds was 0.35-0.8 of its
	// median, beyond any bound a regression check can use.
	if pct, tail, ok := open.Lat.Tail(); ok {
		out.Detail["check_tail_ms"], out.Detail["check_tail_pct"] = ms(tail), pct
	}
	out.Detail["check_samples"] = len(open.Lat)
	flipPct, flipTail, ok := scan.Flip.Tail()
	if !ok {
		return nil, fmt.Errorf("scan phase: %d flips leave no tail", len(scan.Flip))
	}
	out.Detail["flip_tail_pct"], out.Detail["flip_samples"] = flipPct, len(scan.Flip)
	out.Detail["ingest_samples"] = len(scan.Ingest)
	out.Detail["ingest_quartiles_ms"] = []float64{ms(scan.Ingest.Quantile(25)), ms(scan.Ingest.Quantile(50)), ms(scan.Ingest.Quantile(75))}
	out.Detail["closed_checks"] = len(closed.Lat)
	out.Detail["setup_s_each"] = setups

	if tr != nil {
		out.metric("loadgen.lag_p99_ms", ms(open.Lag.Quantile(99)), "ms")
		out.metric("keycheck.cache_hit_ratio", hitRatio, "ratio")
		out.metric("keycheck.http_cached_us", cachedRoundTrip(ctx, client, in.Corpus.Members[0]), "us")
		out.metric("zscan.bridge_wait_ms", ms(scan.BridgeWait.Quantile(50)), "ms")
	} else {
		out.metric("setup_s", medianF(setups), "s")
		out.metric("check_p50_ms", ms(open.Lat.Quantile(50)), "ms")
		out.metric("checks_per_s", closed.Throughput(), "1/s")
		out.metric("ingest_p50_ms", ms(scan.Ingest.Quantile(50)), "ms")
		out.metric("flip_p50_ms", ms(scan.Flip.Quantile(50)), "ms")
		out.metric("flip_tail_ms", ms(flipTail), "ms")
	}
	rss := srv.Stop()
	srv = nil
	if tr == nil {
		out.metric("peak_rss_mb", rss, "MiB")
	}
	return out, nil
}

// cachedRoundTrip is the median HTTP round trip of a verdict-cache hit:
// one key checked repeatedly after a first check fills the cache.
func cachedRoundTrip(ctx context.Context, c *Client, k Key) float64 {
	var s Sample
	for i := 0; i < 201; i++ {
		t0 := time.Now()
		if _, err := c.Check(ctx, k, ""); err != nil {
			return 0
		}
		if i > 0 {
			s = append(s, time.Since(t0))
		}
	}
	return us(s.Quantile(50))
}
