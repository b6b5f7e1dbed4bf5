# Convenience targets; everything is plain dune underneath.

all:
	dune build @all

test:
	dune runtest

test-verbose:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt

bench:
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

# Run every example; several assert their own results, so the first one
# that fails stops the loop with its exit status. CI runs this.
examples:
	for e in quickstart kv_cache process_launch sparse_analytics \
	         durable_log shared_pointers external_sort; do \
	  echo "== $$e"; dune exec examples/$$e.exe || exit 1; done

clean:
	dune clean

# Build + tests + a metrics smoke run. CI runs this, and its determinism
# step compares metrics_smoke.json with a second run. The metrics suite in
# `dune runtest` asserts that the document is JSON which parses back, that
# every complexity sweep (C1, T1's hop counts, R1/R2's recovery costs)
# meets its expected class and that T1 attributes >= 95% of the makespan,
# and diffs the document against the newest committed BENCH_*.json.
# (No fmt step: the repo has no .ocamlformat, so @fmt is not configured.)
check:
	dune build @all
	dune runtest
	dune exec bin/o1mem_cli.exe -- metrics --compact > metrics_smoke.json

# Regression gate: regenerate the bench JSON and diff it against the most
# recent committed BENCH_*.json baseline. One walk compares every section:
# clock_cycles, stats, trace, complexity, profile, faults, store, smp,
# causal and host. Fails on >10% drift the wrong way (host allocated words
# included), a flag flipping false or any complexity-class downgrade; host
# ns totals are only reported. `dune runtest` runs the same diff without
# the host section. The simulator's host speed is measured by the repo
# benchmark (BENCHMARK.json, perfbench/). CI runs this after `make check`.
bench-diff:
	dune exec bench/main.exe -- --json --out fresh_bench.json
	dune exec bin/o1mem_cli.exe -- bench-diff \
	  $$(ls BENCH_*.json | sort | tail -1) fresh_bench.json --threshold 10

# Benchmark smoke: build perfbench/pass.exe in release, as perfbench/run.py
# does, and run one untraced pass at seed 1 of each workload named in
# perf_virtual.jsonl, one line per workload. Every line is checked: the
# pass's own output checks (Os.Check, the store read-back) must report no
# errors and its "virtual" object must equal that line's, so every
# virtual-clock number the benchmark reports is unchanged. Each failing
# workload is reported, then the target fails. A change that moves a
# number on purpose rewrites that line; a new workload adds one. CI runs
# this after `make check`.
perf-smoke:
	dune build --build-dir .bench_build --profile release ./perfbench/pass.exe
	@test -s perf_virtual.jsonl || { echo "perf_virtual.jsonl names no workload"; exit 1; }
	@status=0; \
	while IFS= read -r line || [ -n "$$line" ]; do \
	  w=$$(printf '%s\n' "$$line" | sed -n 's/^{"workload":"\([^"]*\)",.*/\1/p'); \
	  if [ -z "$$w" ]; then echo "perf_virtual.jsonl: no workload in: $$line"; status=1; continue; fi; \
	  if ! out=$$(.bench_build/default/perfbench/pass.exe --workload "$$w" --seed 1 --trace 0 < /dev/null); then \
	    echo "$$w: pass failed"; status=1; continue; fi; \
	  case "$$out" in *'"errors":[]'*) ;; *) echo "$$w: output checks failed: $$out"; status=1; continue;; esac; \
	  v=$$(printf '%s\n' "$$out" | sed -n 's/.*"virtual":\({.*}\),"host":.*/\1/p'); \
	  got="{\"workload\":\"$$w\",\"virtual\":$$v}"; \
	  if [ "$$got" = "$$line" ]; then echo "$$w: virtual metrics unchanged"; \
	  else echo "$$w: virtual metrics differ from perf_virtual.jsonl:"; \
	    echo "  want: $$line"; echo "  got:  $$got"; status=1; fi; \
	done < perf_virtual.jsonl; \
	exit $$status

# P1 cycle-attribution call trees for the churn workload, both heap
# backends (see EXPERIMENTS.md "P1 — where do the cycles go?"). Every
# frame is a Sim.Trace.span; `profile --format chrome` exports the same
# spans' ring events through Sim.Trace.chrome_events, the one exporter.
profile:
	dune exec bin/o1mem_cli.exe -- profile --backend malloc
	dune exec bin/o1mem_cli.exe -- profile --backend fom

# H1 host-cost attribution: what the HOST pays per simulated op — the
# call tree with self host-ns and self allocated words per path, plus a
# collapsed-stack file for flamegraph.pl / speedscope (see
# EXPERIMENTS.md "H1 — what does the host pay?"). The malloc/free/touch
# root spans are Sim.Trace.span calls too, so their ring events reach
# the one Chrome exporter (Sim.Trace.chrome_events) with the rest.
hotspots:
	dune exec bin/o1mem_cli.exe -- profile --by ns --backend malloc
	dune exec bin/o1mem_cli.exe -- profile --by ns --backend fom
	dune exec bin/o1mem_cli.exe -- profile --by ns --backend fom --format collapsed > hotspots.collapsed
	@echo "wrote hotspots.collapsed ($$(wc -l < hotspots.collapsed) stacks)"

# T1 Chrome timeline for the 4-core migration workload: per-core slices
# from Sim.Trace.chrome_events (the one span exporter, also behind
# `profile --format chrome`), causal flow arrows, sampled busy counters.
# Load timeline.json in chrome://tracing or https://ui.perfetto.dev. That
# the export parses back is asserted in `dune runtest` (causal suite).
timeline:
	dune exec bin/o1mem_cli.exe -- timeline > timeline.json

# R1/R2 chaos matrix: the crash-at-every-step explorers (WAL, FOM fs, and
# the persistent store with its torn/flip damage arms, all instances of
# O1mem.Chaos.crash_every) plus every named fault plan under a fixed
# seed matrix, then the store end-to-end
# crash/recovery demo. Exit 1 on any unexpected invariant violation
# (see EXPERIMENTS.md "R1 — does it survive?" and "R2 — does the store
# survive?"). Last, the physmem suite, whose model property checks
# Phys_mem against a flat byte model, under QCHECK_SEED 1 to 20; the
# first seed that fails stops the sweep and is printed. CI runs this.
chaos:
	dune exec bin/o1mem_cli.exe -- faults --seed 42 --plan each --explore
	dune exec bin/o1mem_cli.exe -- faults --seed 7 --plan each
	dune exec bin/o1mem_cli.exe -- faults --seed 2017 --plan each
	dune exec bin/o1mem_cli.exe -- faults --seed 99 --plan tlb --rounds 32
	dune exec bin/o1mem_cli.exe -- faults --seed 31 --plan store --rounds 24
	dune exec bin/o1mem_cli.exe -- store
	@for seed in $$(seq 1 20); do \
	  out=$$(QCHECK_SEED=$$seed dune exec test/main.exe -- test physmem 2>&1) || { \
	    printf '%s\n' "$$out"; echo "test physmem fails at QCHECK_SEED=$$seed"; exit 1; }; \
	done; echo "test physmem passes at QCHECK_SEED 1-20"

.PHONY: all test test-verbose bench examples clean check bench-diff perf-smoke profile hotspots chaos timeline
