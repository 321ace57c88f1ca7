# Convenience targets; `make check` is what CI runs.

.PHONY: all build test check bench micro determinism multicore demo contention obs groupcommit repl isolation chaos index clean

all: build

build:
	dune build

test:
	dune runtest --force

check: build test

bench:
	dune exec bench/main.exe

# Wall-clock microbenchmarks over the engine hot paths (point read,
# scan, update, visibility-heavy scan, paged B+Tree probes, the bare
# isVisible predicate), written as wall rows to _obs/BENCH_micro.json.
# Same-host A/B comparisons go through perfbench/run.py.
micro:
	mkdir -p _obs
	dune exec bench/main.exe -- micro --bench-out _obs/BENCH_micro.json

# Simulated results are part of the model: the default-seed run of every
# engine x isolation level must reproduce the committed golden output
# byte for byte (--domains 1 is the default, spelled out here because a
# 1-shard run must stay exactly the single-domain run). Wall-clock optimisations that leak into simulated time fail
# here. Two more runs pin the paged B+Tree under buffer pressure (splits
# during the load, thousands of evictions), which the array-index runs
# never reach.
determinism:
	mkdir -p _obs
	for e in si si-cv sias sias-v; do \
	  echo "== $$e =="; \
	  dune exec bin/sias_cli.exe -- run -e $$e --domains 1 > _obs/run_$$e.txt 2>&1 || exit 1; \
	  diff -u test/golden/run_$$e.txt _obs/run_$$e.txt || exit 1; \
	  for l in ssi wsi; do \
	    echo "== $$e/$$l =="; \
	    dune exec bin/sias_cli.exe -- run -e $$e --isolation $$l --domains 1 \
	      > _obs/run_$${e}_$${l}.txt 2>&1 || exit 1; \
	    diff -u test/golden/run_$${e}_$${l}.txt _obs/run_$${e}_$${l}.txt || exit 1; \
	  done; \
	done
	for e in si sias-v; do \
	  echo "== $$e/paged =="; \
	  dune exec bin/sias_cli.exe -- run -e $$e --index paged -w 4 -d 30 \
	    --scale-div 300 --buffer 64 --flush t1 --domains 1 \
	    > _obs/run_$${e}_paged.txt 2>&1 || exit 1; \
	  diff -u test/golden/run_$${e}_paged.txt _obs/run_$${e}_paged.txt || exit 1; \
	done
	@echo "determinism OK: default-seed outputs match test/golden"

# Multicore smoke: the sharded TPC-C bench across 1/2/4 domains with the
# SI checker attached (non-zero exit on any violation), writing the
# scalability curve to _obs/BENCH_multicore.json, plus two 2-domain CLI
# runs: the plain one, and one with the paged index, fault injection and
# the bgwriter, which the sharded runner must honour on every shard.
# Aggregate NOTPM must scale with domains (weak scaling); wall NOTPM
# additionally shows real-core speedup on multicore hosts.
multicore:
	mkdir -p _obs
	dune exec bench/main.exe -- multicore --bench-out _obs/BENCH_multicore.json
	dune exec bin/sias_cli.exe -- run -e sias-v --domains 2 -w 1 -d 10 \
	  --scale-div 300 --check-si
	dune exec bin/sias_cli.exe -- run -e sias-v --domains 2 -w 1 -d 10 \
	  --scale-div 300 --index paged --faults 3 --flush t1 --check-si
	@echo "multicore OK: _obs/BENCH_multicore.json"

demo:
	dune exec examples/recovery_demo.exe

# High-contention TPC-C smoke: every engine under deadlock detection with
# client retries and the online SI checker (non-zero exit on violation).
contention:
	for e in si si-cv sias sias-v; do \
	  echo "== $$e =="; \
	  dune exec bin/sias_cli.exe -- run -e $$e -w 1 -d 10 --scale-div 300 \
	    --terminals 8 --conflict-policy detect --retries 5 --check-si || exit 1; \
	done

# Observability smoke: a short run emitting both artifacts, then validate
# them — the trace must parse as JSON, the metrics must contain the
# device write counter the paper's Table 1 is built from.
obs:
	mkdir -p _obs
	dune exec bin/sias_cli.exe -- run -e sias -w 5 -d 20 --scale-div 300 \
	  --flush t1 --gc 10 --metrics-out _obs/metrics.prom \
	  --trace-out _obs/trace.json --stats-interval 5
	python3 -m json.tool _obs/trace.json > /dev/null
	grep -q '^sias_device_bytes_total{device="data-ssd",op="write"}' _obs/metrics.prom
	grep -q '"traceEvents"' _obs/trace.json
	@echo "obs artifacts OK: _obs/metrics.prom _obs/trace.json"

# Commit-pipeline ablation: every engine under per-commit fsync, group
# commit and async commit. Going sync -> group -> async, commit-path
# fsyncs must fall and throughput must not regress (the bench exits
# non-zero otherwise). The chapter's simulated rows must match
# test/golden/bench_groupcommit.txt line for line.
groupcommit:
	mkdir -p _obs
	dune exec bench/main.exe -- groupcommit --bench-out _obs/BENCH_groupcommit.json \
	  > _obs/groupcommit.txt; status=$$?; cat _obs/groupcommit.txt; exit $$status
	grep -o '{.*"kind": "sim".*}' _obs/BENCH_groupcommit.json > _obs/bench_groupcommit.txt
	diff -u test/golden/bench_groupcommit.txt _obs/bench_groupcommit.txt

# Replication smoke: forced failover (load, partition, crash the
# primary, promote the standby, verify) on every engine, one remote-flush
# run over a lossy link, then the WAL-shipping lag-vs-commit-delay
# ablation with a machine-readable artifact, whose simulated rows must
# match test/golden/bench_repl.txt line for line.
repl:
	mkdir -p _obs
	for e in si si-cv sias sias-v; do \
	  echo "== failover $$e =="; \
	  dune exec examples/failover_demo.exe -- $$e || exit 1; \
	done
	dune exec bin/sias_cli.exe -- run -e sias-v -w 2 -d 10 --scale-div 300 \
	  --repl remote-flush --repl-link lossy
	dune exec bench/main.exe -- repl --bench-out _obs/BENCH_repl.json \
	  > _obs/repl.txt; status=$$?; cat _obs/repl.txt; exit $$status
	grep -o '{.*"kind": "sim".*}' _obs/BENCH_repl.json > _obs/bench_repl.txt
	diff -u test/golden/bench_repl.txt _obs/bench_repl.txt

# Isolation smoke: the si/ssi/wsi ablation across all four engines (the
# bench exits non-zero unless si shows write-skew anomalies and the
# serializable levels show none), the write-skew example, and a chaos
# run at --isolation ssi (volatile SIREAD/abort state must not survive a
# crash). BENCH_isolation.json records the per-engine overhead delta;
# its simulated rows must match test/golden/bench_isolation.txt.
isolation:
	mkdir -p _obs
	dune exec bench/main.exe -- isolation --bench-out _obs/BENCH_isolation.json \
	  > _obs/isolation.txt; status=$$?; cat _obs/isolation.txt; exit $$status
	grep -o '{.*"kind": "sim".*}' _obs/BENCH_isolation.json > _obs/bench_isolation.txt
	diff -u test/golden/bench_isolation.txt _obs/bench_isolation.txt
	dune exec examples/serializable.exe
	dune exec bin/sias_cli.exe -- chaos --isolation ssi

# Crash-schedule smoke: every engine x commit mode, a budgeted sample of
# deterministic crash schedules (including crashes during recovery and
# primary-crash failover) plus the out-of-space scenarios. Every schedule
# must recover byte-identically to the model prefix. CHAOS_FULL=1 drops
# the budget and enumerates every schedule (CI nightly). The report is
# kept as an artifact either way; non-zero exit on any failing schedule.
chaos:
	mkdir -p _obs
	dune exec bin/sias_cli.exe -- chaos --standby \
	  $(if $(CHAOS_FULL),--full,) | tee _obs/chaos_report.txt
	dune exec bin/sias_cli.exe -- chaos --index paged \
	  $(if $(CHAOS_FULL),--full,) | tee _obs/chaos_report_paged.txt

# Paged-index smoke: a beyond-RAM TPC-C run on the WAL-logged paged
# B+Tree for each engine (array is the default and stays on the golden
# path), the paged-index crash schedules, and the index
# write-amplification bench chapter (BENCH_index.json: per-engine index
# vs heap device writes under buffer pressure; the bench exits non-zero
# if SIAS/SIAS-V write more than SI, and its simulated rows must match
# test/golden/bench_index.txt).
index:
	mkdir -p _obs
	for e in si si-cv sias sias-v; do \
	  echo "== $$e/paged =="; \
	  dune exec bin/sias_cli.exe -- run -e $$e --index paged -w 4 -d 10 \
	    --scale-div 300 --buffer 256 --check-si || exit 1; \
	done
	dune exec bin/sias_cli.exe -- chaos --index paged --engines sias,sias-v \
	  --modes sync --budget 40 --oos false
	dune exec bench/main.exe -- index --bench-out _obs/BENCH_index.json
	grep -o '{.*"kind": "sim".*}' _obs/BENCH_index.json > _obs/bench_index.txt
	diff -u test/golden/bench_index.txt _obs/bench_index.txt
	@echo "index OK: _obs/BENCH_index.json"

clean:
	dune clean
	rm -rf _obs
