#!/usr/bin/env bash
# Smoke test of the benchmark: runs every workload at minimal length (one
# round) untraced and traced, and requires a correct result line that holds
# exactly the metrics BENCHMARK.json declares. It also requires the
# benchmark to refuse, with a non-zero exit and no result line, in a
# directory that holds only BENCHMARK.json and perfbench/. Run from the
# repository root:
#
#   bash perfbench/smoke.sh
set -euo pipefail

fail=0
for w in cold-suite warm-sim serve-mix; do
	for t in 0 1; do
		if ! line=$(bash perfbench/run.sh --workload "$w" --seed 7 --seconds 1 --trace "$t" | tail -n 1); then
			echo "FAIL $w trace=$t: exited non-zero"
			fail=1
		elif python3 - "$t" "$line" <<'EOF'
import json, sys
trace, line = sys.argv[1], sys.argv[2]
res = json.loads(line)
bench = json.load(open("BENCHMARK.json"))
want = {m["name"]: m["unit"] for m in bench["per_layer" if trace == "1" else "end_to_end"]}
got = {k: v["unit"] for k, v in res["metrics"].items()}
assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
assert got == want, (sorted(set(got) ^ set(want)))
EOF
		then
			echo "ok   $w trace=$t"
		else
			echo "FAIL $w trace=$t: $line"
			fail=1
		fi
	done
done

bare=.bench_build/perfbench/bare
rm -rf "$bare"
mkdir -p "$bare"
cp BENCHMARK.json "$bare/"
cp -r perfbench "$bare/"
if out=$(cd "$bare" && bash perfbench/run.sh --workload cold-suite --seed 1 --seconds 1 --trace 0 2>/dev/null); then
	echo "FAIL bare checkout: exited 0"
	fail=1
elif [ -n "$out" ]; then
	echo "FAIL bare checkout: printed $out"
	fail=1
else
	echo "ok   bare checkout refuses"
fi
rm -rf "$bare"
exit "$fail"
