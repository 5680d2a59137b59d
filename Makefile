# Developer entry points — see CLAUDE.md / README.md.

SF_DIR ?= /root/testdata/sf0.01

.PHONY: test gate bench bench-smoke scaling soak-neardup

test:            ## full pytest suite (Ray session-scoped, ~90s+)
	python -m pytest tests/ -x -q

gate:            ## ALL queries() vs their DuckDB oracles at $(SF_DIR)
	python tools/check_correctness.py $(SF_DIR)

bench:           ## headline replay + query sweep (one JSON line)
	python bench.py

bench-smoke:     ## the 1-CPU benchmark's own tests (it filters EngineConfig fields by name)
	python -m pytest perfbench/tests -q

scaling:         ## 8 vs 32 CPUs + scaling efficiency
	python bench.py --scaling

soak-neardup:    ## 100k-vector centroid near-dup soak
	python tools/soak_neardup.py 100000 0.45
