# Developer entry points — see CLAUDE.md / README.md.

SF_DIR ?= /root/testdata/sf0.01
# gate: Q="name ..." checks only those queries (default: all)
Q ?=
# bench-pairs: PAIRS parent/change pairs of one 1-CPU benchmark workload;
# the parent is a git worktree at PARENT unless PARENT_DIR names a checkout
PAIRS ?= 10
WORKLOAD ?= tail
SEED ?= 11
SECONDS ?= 40
PARENT ?= HEAD~1
PARENT_DIR ?=

.PHONY: test gate bench bench-smoke bench-pairs bench-table scaling soak-neardup

test:            ## full pytest suite (Ray session-scoped, ~90s+)
	python -m pytest tests/ -x -q

gate:            ## queries() (all, or the names in Q) vs their DuckDB oracles at $(SF_DIR)
	python tools/check_correctness.py $(SF_DIR) $(Q)

bench:           ## headline replay + query sweep (one JSON line)
	python bench.py

bench-smoke:     ## the 1-CPU benchmark's own tests (it filters EngineConfig fields by name)
	python -m pytest perfbench/tests -q

bench-pairs:     ## PAIRS interleaved parent/change runs, one JSON line each in .perfbench_out/pairs/
	@set -e; out=.perfbench_out/pairs/$(WORKLOAD)-s$(SEED).jsonl; mkdir -p .perfbench_out/pairs; \
	wt="$(PARENT_DIR)"; if [ -z "$$wt" ]; then wt=.perfbench_work/parent; \
	  git worktree remove --force $$wt 2>/dev/null || rm -rf $$wt; \
	  mkdir -p .perfbench_work .perfbench_cache; git worktree add --detach $$wt $(PARENT) >/dev/null; \
	  ln -s $(CURDIR)/.perfbench_cache $$wt/.perfbench_cache; fi; \
	for i in $$(seq 1 $(PAIRS)); do \
	  order="parent change"; [ $$((i % 2)) = 0 ] && order="change parent"; \
	  for side in $$order; do \
	    dir=.; [ $$side = parent ] && dir=$$wt; \
	    line=$$(cd $$dir && python3 perfbench/run.py --workload $(WORKLOAD) --seed $(SEED) \
	      --seconds $(SECONDS) --trace 0 2>>$(CURDIR)/$$out.err | tail -n 1); \
	    echo "{\"pair\": $$i, \"side\": \"$$side\", \"result\": $${line:-null}}" | tee -a $$out; \
	  done; \
	done; \
	[ -n "$(PARENT_DIR)" ] || git worktree remove --force $$wt

bench-table:     ## the pairs of WORKLOAD/SEED as a table: medians, quartiles, wins, gain rule, bound flags
	python tools/pairs_table.py $(WORKLOAD) $(SEED)

scaling:         ## 8 vs 32 CPUs + scaling efficiency
	python bench.py --scaling

soak-neardup:    ## 100k-vector centroid near-dup soak
	python tools/soak_neardup.py 100000 0.45
