# Tier-1 verification in one command.
.PHONY: all check build test trace-smoke cluster-smoke verify-probes-smoke policy-smoke \
	hedge-smoke raft-smoke par-smoke model-smoke lint cli-args figure-smoke perfbench-smoke clean

all: build

build:
	dune build

test:
	dune runtest

# End-to-end smoke test of the observability pipeline: run a traced
# simulation, export Chrome trace-event JSON, and have the binary verify
# both the export's schema and the components-sum-to-sojourn invariant
# (--check exits non-zero on any violation).
trace-smoke:
	dune exec bin/concord_sim.exe -- trace --system concord --workload ycsb-a \
		-n 2000 --rate 150 --last 0 --trace _build/trace-smoke.json --check

# Rack-scale smoke test: three instances behind a Po2c balancer; --check
# verifies the conservation invariants (per-instance completions sum to the
# cluster count, goodput does not exceed offered load) and exits non-zero
# on any violation.
cluster-smoke:
	dune exec bin/concord_sim.exe -- cluster --instances 3 --policy po2c \
		-n 4000 --check

# Static timeliness verifier smoke test: bound the worst-case inter-probe
# gap of every suite kernel (Concord and elided placements), cross-check
# against Monte-Carlo observation, and exit non-zero on any violation.
verify-probes-smoke:
	dune exec bin/concord_sim.exe -- verify-probes --samples 2000 --trials 4 \
		--json _build/verify-probes-smoke.json

# Policy-frontier smoke test: every central-queue policy spec must run a
# short standalone simulation with --check's conservation invariants
# intact (all arrivals completed or censored, non-zero goodput), and
# gittins/srpt-noisy must also survive under the cluster layer.
policy-smoke:
	for p in fcfs srpt srpt-noisy:1.0 srpt-kv gittins locality-fcfs; do \
		dune exec bin/concord_sim.exe -- run --system concord --workload ycsb-a \
			--policy $$p -n 2000 --rate 150 --check || exit 1; \
	done
	dune exec bin/concord_sim.exe -- cluster --instances 3 --policy po2c \
		--policy gittins -n 4000 --check

# Tail-tolerance smoke test: every hedge policy spec (plus cross-server
# stealing) must survive a short straggler-rack run with the cluster
# conservation invariants intact — including the hedge-leg accounting
# (routed legs = arrivals + duplicates, exactly one leg per arrival
# completes or is censored).
hedge-smoke:
	for h in fixed:30000 pct:99 adaptive:0.1; do \
		dune exec bin/concord_sim.exe -- cluster --instances 3 --policy po2c \
			--rtt-cycles 5000 --straggler 0:4 --hedge $$h -n 4000 --check || exit 1; \
	done
	dune exec bin/concord_sim.exe -- cluster --instances 3 --policy random \
		--straggler 0:4 --steal -n 4000 --check

# Replicated-tier smoke test: a 3-node Raft group must keep the protocol
# invariants (commit monotone, one leader per term, no committed-entry
# loss, writes never hedged) through a steady run AND through a leader
# kill + re-election; --check exits non-zero on any violation. The
# 5-node failover at a short RTT strands followers behind log gaps, so
# it runs the backfill path (Backfill_check, Ae_nack and the resend
# window) as well as failover replays.
raft-smoke:
	dune exec bin/concord_sim.exe -- raft --nodes 3 -n 4000 --check
	dune exec bin/concord_sim.exe -- raft --nodes 3 -n 4000 \
		--kill-leader-at 60000 --check
	dune exec bin/concord_sim.exe -- raft --nodes 3 -n 4000 \
		--hedge fixed:150000 --straggler 1:3 --check
	dune exec bin/concord_sim.exe -- raft --nodes 5 -n 4000 --rtt-cycles 200000 \
		--kill-leader-at 60000 --hedge fixed:150000 --check

# Parallel-engine smoke test: the rack under the conservative time-window
# engine with 2 domains must keep the same conservation invariants as the
# sequential run (an rtt > 0 gives the model lookahead; rtt 0 would just
# degrade), and asking for it on raft must degrade cleanly — the warning
# on stderr IS the expected behaviour, --check still has to pass.
par-smoke:
	dune exec bin/concord_sim.exe -- cluster --instances 3 --policy po2c \
		--rtt-cycles 4000 -n 4000 --engine par:2 --check
	dune exec bin/concord_sim.exe -- raft --nodes 3 -n 2000 \
		--engine par:2 --check

# Model-checker smoke test: explore every DPOR-inequivalent interleaving
# of the engine's Atomics protocols (SPSC mailbox, sense-reversing
# barrier, work-sharing pool) to quiescence, and prove the checker still
# bites by requiring every seeded-bug fixture (MPSC misuse, publication
# reorder, missing sense reversal, SPSC contract) to be caught. Non-zero
# exit on any violation of a good scenario, any uncaught seeded bug, or
# any exploration that silently hit its schedule cap. Per-scenario caps
# bound the wall time (the whole registry runs in seconds).
model-smoke:
	dune exec bin/concord_sim.exe -- check-model

# Determinism + concurrency lint: the simulation library must not reach
# for ambient nondeterminism (Random, wall clocks, unordered Hashtbl
# iteration, bare Domain/Atomic outside engine/), Par_sim party bodies
# must not touch unmediated shared mutable state (domain-escape pass),
# and every [@lint.deterministic] waiver must still suppress something
# (stale waivers are findings). Also proves the lint itself still bites,
# via --expect-fail fixtures.
lint:
	dune exec tools/lint.exe -- lib
	dune exec tools/lint.exe -- --expect-fail tools/fixtures/bad_random.ml
	dune exec tools/lint.exe -- --expect-fail tools/fixtures/bad_domain.ml
	dune exec tools/lint.exe -- --expect-fail tools/fixtures/bad_escape.ml
	dune exec tools/lint.exe -- --expect-fail tools/fixtures/stale_waiver.ml

# Malformed concord_sim arguments must be rejected as usage errors: each
# of these has to exit non-zero, and not with 125 (cmdliner's status for
# an uncaught exception, i.e. a check that ran too late).
cli-args:
	dune build bin/concord_sim.exe
	for a in "raft --sweep --points 0" "cluster --sweep --points 0" "raft -n 0" "cluster -n 0" \
		"raft --rate 0" "raft-study --nodes 0" "raft --nodes 0" "cluster --instances 0" \
		"cluster --sweep --jobs 0" "run -r 0" "run -r 100 --workers 0" \
		"run --system concord-sls -r 100 --quantum=-1" "cluster --system concord-sls -n 100" \
		"run --system d-fcfs --policy srpt -r 100" \
		"raft-study --write-ratios 2" "raft --cancel-cost-cycles=-5 --hedge fixed:150000" \
		"figure nonexistent-fig" "figure fig3 nonexistent-fig" "figure fig3 --jobs 0" \
		"figure fig3 --jobs abc" "figure --jobs"; do \
		dune exec bin/concord_sim.exe -- $$a >/dev/null 2>&1; s=$$?; \
		if [ $$s -eq 0 ] || [ $$s -eq 125 ]; then \
			echo "concord_sim '$$a' exited $$s"; exit 1; \
		fi; \
	done

# Parallel sweeps must not change results: fig3 rendered with one domain
# and with two has to be byte-identical (EXPERIMENTS.md, "Parallel sweep
# execution").
figure-smoke:
	dune exec bin/concord_sim.exe -- figure fig3 --jobs 1 > _build/figure-smoke-j1.txt
	dune exec bin/concord_sim.exe -- figure fig3 --jobs 2 > _build/figure-smoke-j2.txt
	cmp _build/figure-smoke-j1.txt _build/figure-smoke-j2.txt

# Benchmark smoke test: each perfbench workload must build, run a short
# untraced measurement and pass its own output checks. run.py's last line
# is a JSON report; it must say "correct": true and "failed": 0.
perfbench-smoke:
	for w in server-bimodal server-zippydb rack-seq raft-3node; do \
		python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1 \
			| python3 -c 'import json, sys; r = json.load(sys.stdin); \
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' \
			|| { echo "perfbench-smoke: $$w failed"; exit 1; }; \
	done

# What CI (and every PR) must keep green.
check:
	dune build && dune runtest && $(MAKE) lint && $(MAKE) trace-smoke && $(MAKE) cluster-smoke \
		&& $(MAKE) policy-smoke && $(MAKE) hedge-smoke && $(MAKE) raft-smoke \
		&& $(MAKE) par-smoke && $(MAKE) model-smoke && $(MAKE) verify-probes-smoke \
		&& $(MAKE) cli-args && $(MAKE) figure-smoke && $(MAKE) perfbench-smoke

clean:
	dune clean
