#!/bin/sh
# Anomaly-probe benchmark: sweep the default trial-division + Fermat +
# Pollard-rho probes over a synthetic corpus with planted flaws and
# write BENCH_anomaly.json. Three acceptance floors:
#   - recall: every planted close-prime modulus must come back
#     fermat_weak and every planted small-factor modulus small_factor;
#   - precision: zero false hits on the safe majority;
#   - throughput: >= 100 probes/sec on the pooled engine (the budget
#     that keeps a novel /v1/check probe near a millisecond).
set -eu

MODULI="${BENCH_MODULI:-2000}"
RUNS="${BENCH_RUNS:-2}"
OUT="${BENCH_OUT:-BENCH_anomaly.json}"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM

go build -o "$TMP/anomalybench" ./cmd/anomalybench

"$TMP/anomalybench" -moduli "$MODULI" -runs "$RUNS" -json "$OUT"

field() {
	sed -n "s/.*\"$1\": \([0-9]*\).*/\1/p" "$OUT" | head -1
}
FERMAT_PLANTED="$(field fermat_planted)"
FERMAT_FOUND="$(field fermat_found)"
SMALL_PLANTED="$(field small_planted)"
SMALL_FOUND="$(field small_found)"
FALSE_HITS="$(field false_hits)"
RATE="$(field probes_per_sec)"

[ -n "$FERMAT_PLANTED" ] && [ -n "$FERMAT_FOUND" ] && [ -n "$SMALL_PLANTED" ] \
	&& [ -n "$SMALL_FOUND" ] && [ -n "$FALSE_HITS" ] && [ -n "$RATE" ] || {
	echo "bench-anomaly: missing fields in $OUT" >&2
	cat "$OUT" >&2
	exit 1
}

[ "$FERMAT_FOUND" = "$FERMAT_PLANTED" ] || {
	echo "bench-anomaly: fermat recall $FERMAT_FOUND/$FERMAT_PLANTED" >&2
	cat "$OUT" >&2
	exit 1
}
[ "$SMALL_FOUND" = "$SMALL_PLANTED" ] || {
	echo "bench-anomaly: small-factor recall $SMALL_FOUND/$SMALL_PLANTED" >&2
	cat "$OUT" >&2
	exit 1
}
[ "$FALSE_HITS" = "0" ] || {
	echo "bench-anomaly: $FALSE_HITS false hits on safe moduli" >&2
	cat "$OUT" >&2
	exit 1
}
[ "$RATE" -ge 100 ] || {
	echo "bench-anomaly: $RATE probes/sec below the 100/sec floor" >&2
	cat "$OUT" >&2
	exit 1
}

echo "anomaly bench ok ($RATE probes/sec, recall $FERMAT_FOUND+$SMALL_FOUND/$((FERMAT_PLANTED + SMALL_PLANTED)), 0 false hits -> $OUT)"
