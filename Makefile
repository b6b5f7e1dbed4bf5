# Convenience targets; everything is plain dune underneath.

all:
	dune build @all

test:
	dune runtest

test-verbose:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt

bench:
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

examples:
	for e in quickstart kv_cache process_launch sparse_analytics \
	         durable_log shared_pointers external_sort; do \
	  echo "== $$e"; dune exec examples/$$e.exe; done

clean:
	dune clean

# Build + tests + a metrics smoke run whose JSON must parse. CI runs this.
# (No fmt step: the repo has no .ocamlformat, so @fmt is not configured.)
check:
	dune build @all
	dune runtest
	dune exec bin/o1mem_cli.exe -- metrics --compact > metrics_smoke.json
	python3 -m json.tool metrics_smoke.json > /dev/null && echo "metrics JSON ok"

# Regression gate: regenerate the bench JSON and diff it against the most
# recent committed BENCH_*.json baseline. One walk compares every section:
# clock_cycles, stats, trace, complexity, profile, faults, store, smp,
# causal, throughput and host. Fails on >10% drift the wrong way (host
# allocated words included), a flag flipping false or any complexity-class
# downgrade; host ns and throughput medians are only reported. CI runs
# this after `make check`.
bench-diff:
	dune exec bench/main.exe -- --json --out fresh_bench.json
	dune exec bin/o1mem_cli.exe -- bench-diff \
	  $$(ls BENCH_*.json | sort | tail -1) fresh_bench.json --threshold 10

# Host wall-clock ops/sec over the end-to-end scenarios (the one
# non-deterministic harness; see EXPERIMENTS.md "Throughput harness").
throughput:
	dune exec bench/main.exe -- --throughput

# P1 cycle-attribution call trees for the churn workload, both heap
# backends (see EXPERIMENTS.md "P1 — where do the cycles go?").
profile:
	dune exec bin/o1mem_cli.exe -- profile --backend malloc
	dune exec bin/o1mem_cli.exe -- profile --backend fom

# H1 host-cost attribution: what the HOST pays per simulated op — the
# call tree with self host-ns and self allocated words per path, plus a
# collapsed-stack file for flamegraph.pl / speedscope (see
# EXPERIMENTS.md "H1 — what does the host pay?").
hotspots:
	dune exec bin/o1mem_cli.exe -- profile --by ns --backend malloc
	dune exec bin/o1mem_cli.exe -- profile --by ns --backend fom
	dune exec bin/o1mem_cli.exe -- profile --by ns --backend fom --format collapsed > hotspots.collapsed
	@echo "wrote hotspots.collapsed ($$(wc -l < hotspots.collapsed) stacks)"

# T1 Chrome timeline for the 4-core migration workload: per-core slices,
# causal flow arrows, sampled busy counters. Load timeline.json in
# chrome://tracing or https://ui.perfetto.dev.
timeline:
	dune exec bin/o1mem_cli.exe -- timeline > timeline.json
	python3 -m json.tool timeline.json > /dev/null && echo "timeline.json ok"

# T1 makespan decomposition + machine-checked O(1) batched critical path.
# Exit 1 if attribution falls below 95% or a hop-count sweep misses its
# class. CI runs this.
critical-path:
	dune exec bin/o1mem_cli.exe -- critical-path

# R1/R2 chaos matrix: crash-at-every-step explorers (WAL, FOM fs, and
# the persistent store with its torn/flip damage arms) plus every named
# fault plan under a fixed seed matrix, then the store end-to-end
# crash/recovery demo. Exit 1 on any unexpected invariant violation
# (see EXPERIMENTS.md "R1 — does it survive?" and "R2 — does the store
# survive?"). CI runs this.
chaos:
	dune exec bin/o1mem_cli.exe -- faults --seed 42 --plan each --explore
	dune exec bin/o1mem_cli.exe -- faults --seed 7 --plan each
	dune exec bin/o1mem_cli.exe -- faults --seed 2017 --plan each
	dune exec bin/o1mem_cli.exe -- faults --seed 99 --plan tlb --rounds 32
	dune exec bin/o1mem_cli.exe -- faults --seed 31 --plan store --rounds 24
	dune exec bin/o1mem_cli.exe -- store

.PHONY: all test test-verbose bench examples clean check bench-diff throughput profile hotspots chaos timeline critical-path
