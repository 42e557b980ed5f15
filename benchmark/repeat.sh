#!/usr/bin/env bash
# Run every workload BENCHMARK.json lists twice on the same code (second pass in
# reverse order) and check that the two runs agree on every end-to-end metric
# within that metric's own bound from BENCHMARK.json. Prints, per workload and
# metric, both values, their relative difference and the bound; exits non-zero
# on any violation, on an incorrect run, or on a run flagged INVALID.
#
#   benchmark/repeat.sh            # full runs, four minutes
#   benchmark/repeat.sh --smoke    # Scale::Tiny, 1 s windows, seconds
#
# Under --smoke the timings mean nothing (microsecond operations, hundreds of
# samples): the table is still printed, but only a run that fails or answers
# wrongly fails the script. That is the mode meant for CI.
#
# Other arguments are passed through to the benchmark (e.g. --seconds 6).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/../BENCHMARK.json"
out="$here/out"
mkdir -p "$out"

workloads=(spmv-lib cg-solve net-open)
reversed=(net-open cg-solve spmv-lib)

cargo build --release --offline --manifest-path "$here/Cargo.toml"

status=0
smoke=0
for arg in "$@"; do
    [ "$arg" = "--smoke" ] && smoke=1
done

run_pass() {
    local pass="$1" seed="$2"
    shift 2
    for w in "$@"; do
        echo "== pass $pass: $w" >&2
        if ! cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- \
            --workload "$w" --seed "$seed" --trace 0 ${extra[@]+"${extra[@]}"} >"$out/repeat.$pass.$w.txt"; then
            echo "FAIL: $w (pass $pass) exited non-zero" >&2
            status=1
        fi
        if grep -q '^# INVALID' "$out/repeat.$pass.$w.txt"; then
            grep '^# INVALID' "$out/repeat.$pass.$w.txt" >&2
            [ "$smoke" -eq 1 ] || status=1
        fi
    done
}

extra=("$@")
run_pass a 1 "${workloads[@]}"
run_pass b 2 "${reversed[@]}"

printf '%-18s %-12s %14s %14s %9s %7s\n' workload metric first second rel_diff bound
for w in "${workloads[@]}"; do
    # Metric lines are `name workload value unit samples`.
    while read -r name _ first _ _; do
        second="$(awk -v n="$name" '$1 == n && !/^#/ && !/^\{/ { print $3 }' "$out/repeat.b.$w.txt")"
        bound="$(sed -n "s/.*\"name\": \"$name\", .*\"bound\": \([0-9.]*\).*/\1/p" "$manifest")"
        if [ -z "$second" ] || [ -z "$bound" ]; then
            echo "FAIL: $w $name missing from the second pass or from BENCHMARK.json" >&2
            status=1
            continue
        fi
        awk -v w="$w" -v n="$name" -v a="$first" -v b="$second" -v bound="$bound" 'BEGIN {
            d = a - b; if (d < 0) d = -d
            rel = (a != 0) ? d / a : (b != 0)
            verdict = (rel <= bound) ? "" : "  VIOLATION"
            printf "%-18s %-12s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", w, n, a, b, 100 * rel, 100 * bound, verdict
            exit (rel <= bound) ? 0 : 1
        }' || [ "$smoke" -eq 1 ] || status=1
    done < <(grep -v -e '^#' -e '^{' "$out/repeat.a.$w.txt")
done

if [ "$status" -ne 0 ]; then
    echo "repeat.sh: the two passes disagree (or a run failed); see above" >&2
fi
exit "$status"
