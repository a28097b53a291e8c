# Tier-1 verification in one command.

.PHONY: check build test fmt bench bench-quick bench-e2e fuzz-recovery fuzz-paging fuzz-server fuzz-chaos clean

check: ## build everything, run the full test suite, deep crash sweeps, bench smoke
	dune build @all && dune runtest && $(MAKE) fuzz-recovery && $(MAKE) fuzz-paging && $(MAKE) fuzz-server && $(MAKE) fuzz-chaos && $(MAKE) bench-quick

build:
	dune build @all

test:
	dune runtest

fmt: ## format the tree (requires an ocamlformat config/install)
	dune fmt

bench: ## all paper experiments + E11 durability + E12 query engine
	dune exec bench/main.exe

bench-quick: ## E12 query + E13 paging + E14 observability + E15 server + E16 batch-vs-naive + E17 resilience + E18 optimizer + E19 introspection + E21 cascades smoke runs (reduced sizes)
	dune exec bench/main.exe -- E12 E13 E14 E15 E16 E17 E18 E19 E21 --quick

bench-e2e: ## E20 over the wire, all four workloads (20 s each; not part of check)
	for w in lookup scan curation ingest; do \
	  sh bench/e2e/run.sh --workload $$w --seed 1 --seconds 20 || exit 1; \
	done

fuzz-recovery: ## crash-anywhere sweep: fault at every op of the bootstrap workload
	BDBMS_FUZZ_DEEP=1 dune exec test/test_recovery.exe -- test bootstrap

fuzz-paging: ## crash-anywhere sweep through a 4-frame pool, incl. eviction fault points; every read-only pin is checked not to mutate its page
	BDBMS_FUZZ_PAGING=1 BDBMS_PAGER_GUARD=1 dune exec test/test_recovery.exe -- test bootstrap

fuzz-server: ## randomized concurrent sessions vs serial oracle + crash injection at commit
	BDBMS_FUZZ_SERVER=1 dune exec test/test_server.exe -- test fuzz

fuzz-chaos: ## 200-seed chaos campaign: transient I/O faults + latency vs live sessions
	BDBMS_FUZZ_CHAOS=1 dune exec test/test_chaos.exe

clean:
	dune clean
