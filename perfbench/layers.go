package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand/v2"
	"net/http/httptest"
	"sort"
	"time"

	"github.com/factorable/weakkeys/internal/anomaly"
	"github.com/factorable/weakkeys/internal/batchgcd"
	"github.com/factorable/weakkeys/internal/certs"
	"github.com/factorable/weakkeys/internal/cluster"
	"github.com/factorable/weakkeys/internal/core"
	"github.com/factorable/weakkeys/internal/fingerprint"
	"github.com/factorable/weakkeys/internal/kernel"
	"github.com/factorable/weakkeys/internal/keycheck"
	"github.com/factorable/weakkeys/internal/numtheory"
	"github.com/factorable/weakkeys/internal/population"
	"github.com/factorable/weakkeys/internal/prodtree"
	"github.com/factorable/weakkeys/internal/scanstore"
	"github.com/factorable/weakkeys/internal/telemetry"
	"github.com/factorable/weakkeys/internal/weakrsa"
	"github.com/factorable/weakkeys/internal/zscan"
)

// replayTrack is the trace track of the in-process replay; request
// spans of the load phases stay on track 0.
const replayTrack = 1

// replayReplicas is the replica count of the in-process cluster.
const replayReplicas = 3

// Replay sizes: how many calls each layer's figure is the median of.
const (
	replayKeys  = 24 // per key class
	ingestDelta = bridgeBatch
)

// replay times calls into the layers' public entry points, each inside
// a span under one root.
type replay struct {
	root *telemetry.Span
	out  *Outcome
	err  error // the first error a layer call returned
}

// check keeps the first error a layer call returns.
func (r *replay) check(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

// each times f(i) for i < n, one span per call.
func (r *replay) each(name string, n int, f func(i int)) Sample {
	s := make(Sample, 0, n)
	for i := 0; i < n; i++ {
		sp := r.root.Child(name)
		t0 := time.Now()
		f(i)
		s = append(s, time.Since(t0))
		sp.End()
	}
	return s
}

// batched is the median over reps of (time for n calls)/n, for calls
// too short to time one by one.
func (r *replay) batched(name string, reps, n int, f func(i int)) time.Duration {
	var per Sample
	for rep := 0; rep < reps; rep++ {
		sp := r.root.Child(name)
		sp.SetArg("calls", n)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		per = append(per, time.Since(t0)/time.Duration(n))
		sp.End()
	}
	return per.Quantile(50)
}

func (r *replay) add(name string, v float64, unit string) { r.out.metric(name, v, unit) }

// Replay re-runs the run's inputs in process through each layer's public
// entry point and adds the per-layer metrics: the corpus analysis and
// its kernels, the corpus load, the index build, Snapshot.Check and
// Service.Check per key class, the anomaly probe and its numtheory
// steps, the product and remainder trees, Snapshot.Ingest of one
// bridge-sized delta, population and RSA key generation, certificate
// encoding, and a three-replica cluster routed through cluster.Router.
func Replay(ctx context.Context, w Workload, seed int64, in *Inputs, tr *telemetry.Tracer, out *Outcome) error {
	top := tr.Start("perfbench")
	defer top.End()
	r := &replay{root: top.ChildTrack("replay", replayTrack), out: out}
	defer r.root.End()

	// The analysis keyserverd -load runs at start-up, on the same
	// corpus: dedup, k=3 distributed batch GCD, fingerprint, analyze.
	store := in.Corpus.Store
	k0 := kernel.Default().Stats()
	sp := r.root.Child("core.AnalyzeStore")
	an, err := core.AnalyzeStore(ctx, store, core.Options{KeyBits: modulusBits, Subsets: serverSubsets})
	sp.End()
	if err != nil {
		return err
	}
	k1 := kernel.Default().Stats()
	stage := map[string]float64{}
	for _, s := range an.Report.Stages {
		stage[s.Name] = s.Stats.Wall.Seconds()
	}
	r.add("core.dedup_s", stage[core.StageDedup], "s")
	r.add("core.batchgcd_s", stage[core.StageBatchGCD], "s")
	r.add("core.fingerprint_s", stage[core.StageFingerprint], "s")
	r.add("core.analyze_s", stage[core.StageAnalyze], "s")
	r.add("distgcd.cpu_s", an.GCDStats.CPU.Seconds(), "s")
	r.add("distgcd.peak_mb", float64(an.GCDStats.Bytes)/(1<<20), "MiB")
	hits, misses := k1.ArenaHits-k0.ArenaHits, k1.ArenaMisses-k0.ArenaMisses
	r.add("kernel.arena_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	r.add("kernel.chunk_wait_ms", ms(k1.ChunkWait-k0.ChunkWait), "ms")
	fp := an.Fingerprint

	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		return err
	}
	r.add("scanstore.load_ms", ms(r.each("scanstore.Load", 3, func(int) {
		_, err := scanstore.Load(bytes.NewReader(buf.Bytes()))
		r.check(err)
	}).Quantile(50)), "ms")

	var snap *keycheck.Snapshot
	r.add("keycheck.build_ms", ms(r.each("keycheck.Build", 2, func(int) {
		snap, err = keycheck.Build(ctx, keycheck.BuildInput{Store: store, Fingerprint: fp})
		r.check(err)
	}).Quantile(50)), "ms")
	if r.err != nil {
		return r.err
	}

	// Keys by class: the run's members, and novel keys from an index
	// range the timed phases never reach.
	byClass := map[Class][]Key{}
	for _, m := range in.Corpus.Members {
		if len(byClass[m.Want]) < replayKeys {
			byClass[m.Want] = append(byClass[m.Want], m)
		}
	}
	for i := uint64(1 << 40); len(byClass[ClassClean+"_novel"]) < replayKeys ||
		len(byClass[ClassFermatWeak]) < replayKeys/2 || len(byClass[ClassSmallFactor]) < replayKeys/2; i++ {
		k := NovelKey(seed, i, in.Corpus.Weak)
		c := k.Want
		if c == ClassClean {
			c = ClassClean + "_novel"
		}
		if len(byClass[c]) < replayKeys {
			byClass[c] = append(byClass[c], k)
		}
	}
	clean, factored, novel := byClass[ClassClean], byClass[ClassFactored], byClass[ClassClean+"_novel"]
	hit := append(append([]Key(nil), byClass[ClassFermatWeak][:replayKeys/2]...), byClass[ClassSmallFactor][:replayKeys/2]...)
	if len(clean) == 0 || len(factored) == 0 {
		return fmt.Errorf("corpus has %d clean and %d factored members; need both", len(clean), len(factored))
	}

	bodies := make([][]byte, len(novel))
	for i, k := range novel {
		bodies[i], _ = json.Marshal(map[string]string{"modulus_hex": k.Hex(), "exponent_hex": "10001"})
	}
	r.add("keycheck.parse_us", us(r.batched("keycheck.ParseSubmissionWithExponent", 5, 200, func(i int) {
		keycheck.ParseSubmissionWithExponent(bodies[i%len(bodies)])
	})), "us")

	judge := func(k Key, v keycheck.Verdict) {
		if err := Judge(k, Verdict{Status: string(v.Status), Known: v.Known}); err != nil {
			out.wrong(fmt.Errorf("in-process Snapshot.Check: %w", err))
		}
	}
	memberClean := r.each("keycheck.Snapshot.Check/member_clean", len(clean), func(i int) { judge(clean[i], snap.Check(clean[i].N)) }).Quantile(50)
	r.add("keycheck.check_member_clean_us", us(memberClean), "us")
	snapFactored := r.batched("keycheck.Snapshot.Check/member_factored", 5, 100, func(i int) {
		judge(factored[i%len(factored)], snap.Check(factored[i%len(factored)].N))
	})
	r.add("keycheck.check_member_factored_us", us(snapFactored), "us")
	r.add("keycheck.check_novel_clean_us", us(r.each("keycheck.Snapshot.Check/novel_clean", len(novel), func(i int) {
		judge(novel[i], snap.Check(novel[i].N))
	}).Quantile(50)), "us")
	r.add("keycheck.sweep_ns_per_modulus", float64(memberClean.Nanoseconds())/float64(snap.Moduli()), "ns")

	// Service.Check around Snapshot.Check, cache off, on the factored
	// fast path: the difference is the service's own share (worker pool,
	// context, telemetry) without a sweep's noise on top.
	svc := keycheck.NewService(snap, keycheck.Config{CacheSize: -1})
	svcFactored := r.batched("keycheck.Service.Check/member_factored", 5, 100, func(i int) {
		k := factored[i%len(factored)]
		v, err := svc.Check(ctx, k.N)
		if err != nil {
			out.wrong(err)
		}
		judge(k, v)
	})
	svc.Drain()
	r.add("keycheck.service_self_us", us(svcFactored-snapFactored), "us")

	// The anomaly probe and the numtheory steps it runs, at the
	// serving defaults.
	var probe anomaly.Probe // zero value: the serving defaults
	r.add("anomaly.probe_clean_us", us(r.each("anomaly.Probe.Factor/clean", len(novel), func(i int) {
		if cls, _, _ := probe.Factor(novel[i].N); cls != "" {
			out.wrong(fmt.Errorf("probe split a clean novel key: %s", cls))
		}
	}).Quantile(50)), "us")
	r.add("anomaly.probe_hit_us", us(r.each("anomaly.Probe.Factor/hit", len(hit), func(i int) {
		if cls, _, _ := probe.Factor(hit[i].N); string(cls) != string(hit[i].Want) {
			out.wrong(fmt.Errorf("probe class %q for a planted %s key", cls, hit[i].Want))
		}
	}).Quantile(50)), "us")
	r.add("numtheory.trial_us", us(r.batched("numtheory.SmallFactors", 5, len(novel), func(i int) {
		numtheory.SmallFactors(novel[i].N, anomaly.DefaultTrialPrimes)
	})), "us")
	r.add("numtheory.fermat_us", us(r.each("numtheory.FermatFactor", len(novel), func(i int) {
		numtheory.FermatFactor(novel[i].N, anomaly.DefaultFermatSteps)
	}).Quantile(50)), "us")
	r.add("numtheory.rho_us", us(r.each("numtheory.PollardRho", len(novel), func(i int) {
		numtheory.PollardRho(novel[i].N, anomaly.DefaultRhoSteps)
	}).Quantile(50)), "us")

	// Product and remainder trees, and the batch GCD over the corpus.
	moduli, _ := store.DistinctModuli()
	var tree *prodtree.Tree
	r.add("prodtree.build_ms", ms(r.each("prodtree.New", 2, func(int) {
		tree, err = prodtree.New(moduli)
		r.check(err)
	}).Quantile(50)), "ms")
	if r.err != nil {
		return r.err
	}
	r.add("prodtree.remainder_ms", ms(r.each("prodtree.RemainderTreeSquared", 2, func(int) {
		tree.RemainderTreeSquared(tree.Root())
	}).Quantile(50)), "ms")
	r.add("batchgcd.factor_ms", ms(r.each("batchgcd.Factor", 1, func(int) {
		_, err := batchgcd.Factor(moduli)
		r.check(err)
	}).Quantile(50)), "ms")

	// Snapshot.Ingest of bridge-sized deltas of fresh keys.
	const ingests = 3
	fresh := NovelKeys(seed, 1<<41, ingests*ingestDelta, nil)
	deltas := make([]*scanstore.Store, ingests)
	for i := range deltas {
		deltas[i] = scanstore.New()
		for _, k := range fresh[i*ingestDelta : (i+1)*ingestDelta] {
			deltas[i].AddBareKeyObservation("192.0.2.1", corpusDate, scanstore.SourceAPI, scanstore.HTTPS, k.N)
		}
	}
	var reused []float64
	r.add("keycheck.ingest_ms", ms(r.each("keycheck.Snapshot.Ingest", ingests, func(i int) {
		_, ir, err := snap.Ingest(ctx, keycheck.BuildInput{Store: deltas[i]})
		r.check(err)
		reused = append(reused, float64(ir.NodesReused)/float64(max(ir.NodesReused+ir.NodesBuilt, 1)))
	}).Quantile(50)), "ms")
	r.add("keycheck.ingest_nodes_reused_ratio", medianF(reused), "ratio")

	// Key generation and certificate encoding, as the simulated study's
	// harvest runs them: a device population's healthy and shared-prime
	// keys, and the underlying RSA key generation.
	factory := population.NewKeyFactory(seed, modulusBits)
	r.add("population.healthy_key_ms", ms(r.each("population.KeyFactory.Healthy", 10, func(int) {
		_, err := factory.Healthy()
		r.check(err)
	}).Quantile(50)), "ms")
	r.add("population.shared_prime_key_ms", ms(r.each("population.KeyFactory.SharedPrime", 10, func(int) {
		_, err := factory.SharedPrime("perfbench", weakrsa.PrimeOpenSSL)
		r.check(err)
	}).Quantile(50)), "ms")
	kr := rand.NewChaCha8(seedBytes(seed))
	var key *weakrsa.PrivateKey
	r.add("weakrsa.keygen_ms", ms(r.each("weakrsa.GenerateKey", 10, func(int) {
		key, err = weakrsa.GenerateKey(kr, weakrsa.Options{Bits: modulusBits})
		r.check(err)
	}).Quantile(50)), "ms")
	if r.err != nil {
		return r.err
	}
	cert, err := certs.SelfSigned(big.NewInt(seed), certs.Name{CommonName: "perfbench", Organization: "bench"},
		corpusDate, corpusDate.AddDate(1, 0, 0), []string{"bench.example"}, key.N, key.E, key.D)
	if err != nil {
		return err
	}
	r.add("certs.marshal_us", us(r.batched("certs.Certificate.Marshal", 5, 100, func(int) {
		_, err := cert.Marshal()
		r.check(err)
	})), "us")

	// The scan engine unpaced over a sparse fleet: probes, harvest,
	// dedup and store, without the bridge.
	fleet, err := zscan.NewSimFleet(zscan.FleetOptions{Space: 1 << 16, Devices: fleetDevices, Bits: modulusBits, Seed: seed})
	if err != nil {
		return err
	}
	var pps []float64
	r.each("zscan.Engine.Run", 3, func(int) {
		eng, err := zscan.New(zscan.Options{Space: 1 << 16, Seed: seed, Workers: 2, Prober: fleet, Store: scanstore.New()})
		if err != nil {
			r.check(err)
			return
		}
		rep, err := eng.Run(ctx)
		r.check(err)
		pps = append(pps, rep.ProbesPerSec)
	})
	r.add("zscan.probes_per_s", medianF(pps), "1/s")
	if r.err != nil {
		return r.err
	}
	return r.cluster(ctx, w, seed, in, store, fp)
}

// cluster routes a sample of the run's key mix through cluster.Router
// over three in-process replicas, each indexing its placement-owned
// shards, and times direct replica checks of clean members.
func (r *replay) cluster(ctx context.Context, w Workload, seed int64, in *Inputs, store *scanstore.Store, fp *fingerprint.Result) error {
	// Placement needs every address before any replica can be built:
	// the unstarted servers hold their listeners already.
	var addrs []string
	var servers []*httptest.Server
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	for i := 0; i < replayReplicas; i++ {
		s := httptest.NewUnstartedServer(nil)
		servers = append(servers, s)
		addrs = append(addrs, s.Listener.Addr().String())
	}
	placement, err := cluster.NewPlacement(addrs, keycheck.DefaultShards, cluster.DefaultReplication)
	if err != nil {
		return err
	}
	for i, a := range addrs {
		snap, err := keycheck.Build(ctx, keycheck.BuildInput{Store: store, Fingerprint: fp, OwnShards: placement.OwnedBy(a)})
		if err != nil {
			return err
		}
		svc := keycheck.NewService(snap, keycheck.Config{})
		defer svc.Drain()
		servers[i].Config.Handler = keycheck.NewAPI(svc, nil, nil).Mux()
		servers[i].Start()
	}
	reg := telemetry.New()
	rt, err := cluster.NewRouter(cluster.RouterConfig{Replicas: addrs, Metrics: reg, Seed: seed})
	if err != nil {
		return err
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	rt.Start(rctx)

	const routed = 48
	keys := KeyMix(seed, w, in.Corpus, phaseRouted, routed)
	hops := 0
	r.each("cluster.Router.Check", routed, func(i int) {
		k := keys[i]
		v := rt.Check(ctx, k.N)
		hops += v.Hops
		// Exponents fold in after routing, as keyrouter does.
		vv := v.Verdict
		if e, ok := new(big.Int).SetString(k.ExponentHex, 16); ok {
			vv = keycheck.ApplyExponent(vv, e)
		}
		if err := Judge(k, Verdict{Status: string(vv.Status), Known: vv.Known}); err != nil {
			r.out.wrong(fmt.Errorf("in-process router: %w", err))
		}
	})
	r.add("cluster.hops_per_check", float64(hops)/routed, "count")
	r.add("cluster.hedge_ratio", float64(reg.CounterValue("cluster_hedges_total"))/routed, "ratio")

	var clean []Key
	for _, m := range in.Corpus.Members {
		if m.Want == ClassClean && len(clean) < replayKeys {
			clean = append(clean, m)
		}
	}
	rep := cluster.NewReplica(addrs[0], 10*time.Second)
	r.add("cluster.replica_check_ms", ms(r.each("cluster.Replica.Check", len(clean), func(i int) {
		if _, rerr := rep.Check(ctx, clean[i].Hex()); rerr != nil {
			r.out.wrong(fmt.Errorf("replica check: %v", rerr))
		}
	}).Quantile(50)), "ms")
	return nil
}

func seedBytes(seed int64) [32]byte {
	var b [32]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(seed) >> (8 * i))
	}
	return b
}

// selfTimes is each replay span's mean self time in µs: its duration
// minus the durations of the spans directly nested in it on its track.
// Request spans (track 0) run concurrently and have no children.
func selfTimes(tr *telemetry.Tracer) map[string]float64 {
	evs := tr.Events()
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].TID != evs[j].TID {
			return evs[i].TID < evs[j].TID
		}
		if evs[i].TS != evs[j].TS {
			return evs[i].TS < evs[j].TS
		}
		return evs[i].Dur > evs[j].Dur
	})
	self := make([]float64, len(evs))
	var stack []int
	for i, ev := range evs {
		self[i] = ev.Dur
		if ev.TID == 0 {
			continue
		}
		for len(stack) > 0 {
			top := evs[stack[len(stack)-1]]
			if top.TID == ev.TID && ev.TS >= top.TS && ev.TS+ev.Dur <= top.TS+top.Dur {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			self[stack[len(stack)-1]] -= ev.Dur
		}
		stack = append(stack, i)
	}
	sum, n := map[string]float64{}, map[string]int{}
	for i, ev := range evs {
		sum[ev.Name] += self[i]
		n[ev.Name]++
	}
	for k := range sum {
		sum[k] /= float64(n[k])
	}
	return sum
}
