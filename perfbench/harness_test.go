package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	mk := func(n int) Sample {
		s := make(Sample, n)
		for i := range s {
			s[n-1-i] = time.Duration(i+1) * time.Millisecond // unsorted on purpose
		}
		return s
	}
	for _, tc := range []struct {
		n       int
		pct     float64
		v       time.Duration
		hasTail bool
	}{
		{10, 0, 0, false},
		{20, 50, 10 * time.Millisecond, true},
		{100, 90, 90 * time.Millisecond, true},
		{199, 90, 180 * time.Millisecond, true},
		{200, 95, 190 * time.Millisecond, true},
		{1000, 99, 990 * time.Millisecond, true},
		{999, 98, 980 * time.Millisecond, true},
		{5000, 99, 4950 * time.Millisecond, true},
	} {
		pct, v, ok := mk(tc.n).Tail()
		if ok != tc.hasTail || pct != tc.pct || v != tc.v {
			t.Errorf("n=%d: tail p%v=%v ok=%v, want p%v=%v ok=%v", tc.n, pct, v, ok, tc.pct, tc.v, tc.hasTail)
		}
		if ok {
			beyond := 0
			for _, x := range mk(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < tailBeyond {
				t.Errorf("n=%d: only %d samples beyond the tail", tc.n, beyond)
			}
		}
	}
	if got := mk(100).Quantile(50); got != 50*time.Millisecond {
		t.Errorf("median of 1..100ms = %v", got)
	}
}

// fakeServer answers every check with status after delay.
func fakeServer(t *testing.T, status string, code int, delay time.Duration) *Client {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		if code != http.StatusOK {
			http.Error(w, "overloaded", code)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"status": status, "known": false})
	}))
	t.Cleanup(srv.Close)
	return NewClient(strings.TrimPrefix(srv.URL, "http://"), 2)
}

func TestOracleRejectsWrongVerdicts(t *testing.T) {
	keys := NovelKeys(4, 0, 60, nil)
	ctx := context.Background()
	// A server that calls everything clean is wrong on every planted
	// weak key, and only those.
	tally := ClosedLoop(ctx, fakeServer(t, "clean", http.StatusOK, 0), nil, 1, 10*time.Second, keys)
	wantWrong := 0
	for _, k := range keys {
		if k.Want != ClassClean {
			wantWrong++
		}
	}
	if tally.Attempted != len(keys) {
		t.Fatalf("closed loop sent %d of %d keys", tally.Attempted, len(keys))
	}
	if wantWrong == 0 || tally.Wrong != wantWrong || tally.Failed != 0 {
		t.Fatalf("wrong=%d failed=%d, want wrong=%d failed=0", tally.Wrong, tally.Failed, wantWrong)
	}
	// Refusals count as failures, not verdicts.
	shed := OpenLoop(ctx, fakeServer(t, "", http.StatusServiceUnavailable, 0), nil, 1, 100, keys[:10])
	if shed.Failed != shed.Attempted || shed.Attempted != 10 || len(shed.Lat) != 0 {
		t.Fatalf("503s: attempted=%d failed=%d latencies=%d", shed.Attempted, shed.Failed, len(shed.Lat))
	}
	if err := Judge(Key{N: keys[0].N, Want: ClassClean}, Verdict{Status: "clean", Known: true}); err == nil {
		t.Fatal("oracle accepted a novel key answered as a corpus member")
	}
}

func TestOpenLoopChargesQueueingToLatency(t *testing.T) {
	keys := NovelKeys(4, 0, 20, nil)
	for i := range keys {
		keys[i].Want, keys[i].ExponentHex = ClassClean, ""
	}
	ctx := context.Background()
	// One connection, 20ms per request, 100 requests/s offered: each
	// request waits for the ones before it, so lag grows by ~10ms per
	// request and latency (from the due time) includes it.
	slow := OpenLoop(ctx, fakeServer(t, "clean", http.StatusOK, 20*time.Millisecond), nil, 1, 100, keys)
	if slow.Attempted != 20 || len(slow.Lag) != 20 {
		t.Fatalf("attempted %d, lags %d", slow.Attempted, len(slow.Lag))
	}
	if lag := slow.Lag.Quantile(100); lag < 150*time.Millisecond {
		t.Fatalf("max lag %v behind a 2x-overloaded server, want >= 150ms", lag)
	}
	if p50 := slow.Lat.Quantile(50); p50 < slow.Lag.Quantile(50)+20*time.Millisecond {
		t.Fatalf("p50 latency %v does not include p50 lag %v plus service time", p50, slow.Lag.Quantile(50))
	}
	// The same schedule against a fast server keeps the sender on time.
	fast := OpenLoop(ctx, fakeServer(t, "clean", http.StatusOK, 0), nil, 1, 100, keys)
	if lag := fast.Lag.Quantile(90); lag > 50*time.Millisecond {
		t.Fatalf("p90 lag %v against an idle server", lag)
	}
}

func TestFlipOracleWantsAKnownFactoredMember(t *testing.T) {
	h := NovelKeys(4, 0, 1, nil)[0].Hex()
	for _, tc := range []struct {
		status string
		known  bool
		ok     bool
	}{
		{"factored", true, true},
		{"shared_factor", false, false}, // the ingested modulus lost its membership
		{"factored", false, false},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(map[string]any{"status": tc.status, "known": tc.known})
		}))
		_, err := awaitCompromised(context.Background(), NewClient(strings.TrimPrefix(srv.URL, "http://"), 1), h)
		srv.Close()
		if (err == nil) != tc.ok {
			t.Errorf("%s known=%v: err=%v, want ok=%v", tc.status, tc.known, err, tc.ok)
		}
	}
}

func TestClosedLoopSendsEachKeyOnceWithinItsLimit(t *testing.T) {
	k := NovelKeys(4, 0, 1, nil)[0]
	k.Want, k.ExponentHex = ClassClean, ""
	keys := make([]Key, 1000)
	for i := range keys {
		keys[i] = k
	}
	ctx := context.Background()
	all := ClosedLoop(ctx, fakeServer(t, "clean", http.StatusOK, 0), nil, 2, 10*time.Second, keys[:100])
	if all.Attempted != 100 || len(all.Lat) != 100 || all.Throughput() <= 0 {
		t.Fatalf("sent %d of 100 keys, %d answered", all.Attempted, len(all.Lat))
	}
	cut := ClosedLoop(ctx, fakeServer(t, "clean", http.StatusOK, 20*time.Millisecond), nil, 2, 200*time.Millisecond, keys)
	if cut.Attempted == 0 || cut.Attempted > 30 || cut.Elapsed > time.Second {
		t.Fatalf("a 200 ms limit at 20 ms a check sent %d keys over %v", cut.Attempted, cut.Elapsed)
	}
}
