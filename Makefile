# The gates, defined once: `make check` runs them offline and the `check`
# job of .github/workflows/ci.yml runs these same targets. Perf questions
# go to the benchmark (BENCHMARK.json, benchmark/run.sh);
# `benchmark-smoke` below is its gate here.

CARGO ?= cargo

.PHONY: check fmt fmt-check build test test-release clippy doc quickstart reproduce \
	reproduce-check benchmark-smoke loc

check: fmt-check build test clippy doc quickstart reproduce-check benchmark-smoke

fmt:
	$(CARGO) fmt --all

fmt-check:
	$(CARGO) fmt --all --check

build:
	$(CARGO) build --release

# Runs every unit test plus the integration suite under tests/
# (fleet ingestion golden equivalence, MRT round-trip proptests, …).
test:
	$(CARGO) test -q

# The heap-merge and proptest suites again, optimized — what the CI
# release-test job runs (debug_assert-free, so it also exercises the
# release-mode code paths of the merge).
test-release:
	$(CARGO) test -q --release

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps

quickstart:
	$(CARGO) run --release -p bh-examples --example quickstart

# Regenerate every table and figure of the paper from one shared world
# and check the paper's claims against it (bh_bench::reproduce); the
# report is committed as EXPERIMENTS.md.
reproduce:
	$(CARGO) run --release -p bh-examples --example reproduce > EXPERIMENTS.md

# The gate: a broken claim fails the run, a stale EXPERIMENTS.md fails
# the diff (two steps, not a pipe, so /bin/sh sees both exit codes). The
# run's wall seconds (the build before it excluded) and the peak RSS it
# prints on stderr are printed and kept in target/reproduce-wall.txt,
# which CI adds to the run summary: a report, not a gate.
reproduce-check:
	$(CARGO) build --release -p bh-examples --example reproduce
	@start=$$(date +%s.%N); \
	$(CARGO) run --release -p bh-examples --example reproduce > target/EXPERIMENTS.md \
		2> target/reproduce-stderr.txt; \
	status=$$?; \
	grep -v '^reproduce: .* peak RSS$$' target/reproduce-stderr.txt >&2; \
	awk -v start=$$start -v end=$$(date +%s.%N) \
		'BEGIN { printf "reproduce: %.1f s wall\n", end - start }' | tee target/reproduce-wall.txt; \
	grep '^reproduce: .* peak RSS$$' target/reproduce-stderr.txt | tee -a target/reproduce-wall.txt; \
	exit $$status
	diff target/EXPERIMENTS.md EXPERIMENTS.md

# The standalone benchmark/ crate is outside the workspace, so nothing
# above compiles it: build it and run its tests (unit tests plus every
# workload `--smoke` in both trace modes, metric names/units checked
# against BENCHMARK.json), so an API change under its adapter cannot rot.
benchmark-smoke:
	$(CARGO) test --release --offline --manifest-path benchmark/Cargo.toml

# Non-test lines per crate, then non-test `pub fn` lines per crate, then
# non-test `pub struct|enum|trait|type` lines per crate, then settable
# values per crate (the `pub` fields of structs whose name ends in
# `Config` or `Policy`), then panic sites per crate (non-comment lines
# matching `panic!`, `.unwrap()`, `.expect(`, `assert` — `assert_eq!`
# and `debug_assert*` included — or `unreachable!`): every file under
# crates/*/src counted up to its first `#[cfg(test)]`. The numbers a
# consolidation PR quotes before and after ("~35k lines is the budget to
# shrink"; a public function or type nothing calls is surface to shrink
# too; every settable value doubles the configurations to cover; a
# library crate returns errors instead of panicking); CI prints them
# into the run summary, but they are not a gate.
loc:
	@find crates/*/src -name '*.rs' | sort | xargs awk ' \
		FNR == 1 { in_tests = 0; in_cfg = 0; split(FILENAME, path, "/"); crate = path[2] } \
		/#\[cfg\(test\)\]/ { in_tests = 1 } \
		!in_tests { lines[crate]++; total++ } \
		!in_tests && /^[[:space:]]*pub fn / { pub_fns[crate]++; pub_total++ } \
		!in_tests && /^[[:space:]]*pub (struct|enum|trait|type) / { pub_types[crate]++; types_total++ } \
		!in_tests && !/^[[:space:]]*\/\// && /panic!|\.unwrap\(\)|\.expect\(|assert|unreachable!/ \
			{ panics[crate]++; panics_total++ } \
		in_cfg && /^[[:space:]]*}/ { in_cfg = 0 } \
		in_cfg && /^[[:space:]]*pub [a-z_][a-z0-9_]*:/ { settable[crate]++; settable_total++ } \
		!in_tests && /^[[:space:]]*pub struct [A-Za-z0-9_]*(Config|Policy)[^A-Za-z0-9_].*{$$/ { in_cfg = 1 } \
		END { printf "%-10s %6s %6s %8s %8s %6s\n", "crate", "lines", "pub fn", "pub type", "settable", "panics"; \
		      for (c in lines) printf "%-10s %6d %6d %8d %8d %6d\n", c, lines[c], pub_fns[c], pub_types[c], settable[c], panics[c] | "sort"; \
		      close("sort"); printf "%-10s %6d %6d %8d %8d %6d\n", "total", total, pub_total, types_total, settable_total, panics_total }'
