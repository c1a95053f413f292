#!/usr/bin/env bash
# The design fences: one function per rule of the code base, a grep or awk
# scan of the source that fails when the rule is broken; the `## ` line
# above it is its title. Usage: bash scripts/fences.sh [--list | FENCE...]
# Each fence runs in its own `bash -eo pipefail` process, as a CI `run:`
# block does: under `if`, `!`, `&&` or `||` errexit is off, and a failing
# `test` in a body would pass. tests/fences.rs plants a violation of each.
set -eo pipefail
cd "$(dirname "$0")/.."

# The code lines of each FILE, the non-comment lines above its `#[cfg(test)]`
# (with -a comments too), through the awk PROGRAM (print `FILE:LINE: text`).
code() {
  local skip='/^[[:space:]]*\/\// {next}' prog='{print FILENAME ":" FNR ": " $0}'
  if [ "$1" = -a ]; then skip=; shift; fi
  if [ "$1" = -p ]; then prog=$2; shift 2; fi
  awk "/^#\[cfg\(test\)\]/ {nextfile} $skip $prog" "$@" < /dev/null
}

# The lines of FILE (- for stdin) from a line matching the ERE START to
# the next one matching END, for each START END pair, in file order.
block() {
  local file=$1 prog=; shift
  while [ $# -gt 0 ]; do prog="$prog /$1/,/$2/;"; shift 2; done
  awk "$prog" "$file"
}

## Size budget of crates/core/src
# Non-test, non-comment, non-blank lines, per crate and, for `comms`, `serve`
# and `core`, per file. Only `core` has a budget: its five trainers were
# folded into one step engine (ROADMAP item 1) and may not regrow. Its oracle,
# `reference.rs`, which no runtime runs, is counted apart, outside the budget.
size_budget() {
  declare -A lines
  counts=$(code -p '!/^[[:space:]]*$/ {n[FILENAME]++} END {for (f in n) print n[f], f}' \
    $(find crates/*/src -name '*.rs'))
  while read -r n f; do lines[$f]=$n; done <<< "$counts"
  all=0
  for c in crates/*; do
    n=0
    for f in $(find "$c/src" -name '*.rs'); do n=$((n + ${lines[$f]:-0})); done
    printf '%6d %s\n' "$n" "$c"
    all=$((all + n))
  done
  echo "$all lines in crates/*/src"
  for f in $(find crates/comms/src crates/serve/src -name '*.rs' | sort); do
    printf '%6d %s\n' "${lines[$f]:-0}" "$f"
  done
  total=0
  for f in crates/core/src/*.rs; do
    [ "$f" != crates/core/src/reference.rs ] || continue
    printf '%6d %s\n' "${lines[$f]:-0}" "$f"
    total=$((total + ${lines[$f]:-0}))
  done
  echo "$total lines (budget 3400) in crates/core/src without the oracle"
  f=crates/core/src/reference.rs
  printf '%6d %s (oracle, outside the budget)\n' "${lines[$f]:-0}" "$f"
  test "$total" -le 3400
}
## Shipping code never reaches the oracle
# One oracle, outside the size budget as no runtime runs it: `samo::reference`
# (the three-phase step, `DataParallelSamo`, `DenseMaskedTrainer`). Only its
# re-export in `lib.rs`, its old path `data_parallel.rs` and crates/bench/src
# may name it or what it holds: no other code line of `core` or `serve` does.
oracle() {
  code $(find crates/core/src crates/serve/src -name '*.rs' | sort \
    | grep -vxE 'crates/core/src/(reference|lib|data_parallel)\.rs') \
    | { ! grep -E 'reference::|\bDataParallelSamo\b|\bDenseMaskedTrainer\b|\b(optimizer_step_shard|install_gathered|grads_non_finite|to_full_layer)\b|\.compress_grad\('; }
}
## One rank
# `samo::pipeline::StageRank` is the one rank of the grid: one per thread of
# the group at every grid point and, at one stage, one per process of
# `samo-launch`, sharded because its engine has a group. A second
# cross-process trainer or an engine built with a sharding flag in the code of
# crates/core/src is a second path.
one_rank() {
  named=$(code crates/core/src/*.rs | grep -E '\bDistDataParallel\b' || true)
  built=$(code -p '{print}' crates/core/src/*.rs | tr '\n' ' ' \
    | grep -oE 'StepEngine::build\([^;]*;|fn build\([^{]*' | grep -E '\b(true|false|sharded)\b' || true)
  printf '%s\n' "$named" "$built"
  test -z "$named$built"
}
## One group
# `samo::threaded::RankGroup` is the one group of rank threads at every grid
# point (`ThreadedPipelineSamo` its alias, `ThreadedDataParallelSamo` its 1×G
# wrapper): in crates/core/src code, its builder alone spawns rank threads and
# the wrapper alone holds a group. No Rust file names `DataParallelRank`.
one_group() {
  spawns=$(code -p 'FILENAME != at {at = FILENAME; fn = ""}
    match($0, /fn [a-z_0-9]+/) {fn = substr($0, RSTART + 3, RLENGTH - 3)}
    /thread::(Builder|spawn|scope)|[^_a-z]spawn\(/ {print FILENAME ": " fn}' crates/core/src/*.rs | sort -u)
  held=$(code -p 'FILENAME != at {at = FILENAME; name = ""}
    match($0, /struct [A-Za-z_0-9]+/) {
      name = substr($0, RSTART + 7, RLENGTH - 7)
      rest = substr($0, RSTART + RLENGTH)
      if (rest ~ /RankGroup<|ThreadedPipelineSamo|ThreadedDataParallelSamo</) print FILENAME ": " name
      if (rest ~ /;/) name = ""
      next
    }
    name != "" && /RankGroup<|ThreadedPipelineSamo|ThreadedDataParallelSamo</ {print FILENAME ": " name}
    /^}/ {name = ""}' crates/core/src/*.rs | sort -u)
  alias=$(grep -rnw DataParallelRank --include='*.rs' crates src tests examples benchmark/src || true)
  printf '%s\n' "$spawns" "$held" "$alias"
  test "$spawns" = "crates/core/src/threaded.rs: build"
  test "$held" = "crates/core/src/threaded.rs: ThreadedDataParallelSamo"
  test -z "$alias"
}
## One bucket
# A data-parallel step sends its gradients and parameters by the bucket:
# `StepEngine::start_bucket` starts every reduce-scatter ring and
# `StepEngine::step_buckets` every parameter all-gather. A ring or a gather
# started anywhere else in the code of crates/core/src is a message per
# parameter again. (The collective save and the remap gathers block.)
one_bucket() {
  calls=$(code -p 'FILENAME != at {at = FILENAME; fn = ""}
    match($0, /fn [a-z_0-9]+/) {fn = substr($0, RSTART + 3, RLENGTH - 3)}
    /(reduce_scatter_start|all_gather_f16_start)\(/ {print FILENAME ": " fn}' crates/core/src/*.rs)
  printf '%s\n' "$calls"
  test "$calls" = "crates/core/src/engine.rs: start_bucket
crates/core/src/engine.rs: step_buckets"
}
## Gate thresholds live in crates/bench/src/gates.rs, not in inline scripts
# Every check of CI is `repro gate`, a tracker's own gate or a fence here. The
# bracket keeps this fence from matching itself.
gate_thresholds() {
  ! grep -n 'python[3]' .github/workflows/ci.yml scripts/fences.sh
}
## Trace state lives in crates/telemetry/src/trace.rs, not in per-crate buffers
# One recorder: every crate records through `telemetry::trace:: {slice,
# flow}`. A second per-thread sink or a global event vector outside
# `telemetry` is a fifth recorder.
trace_state() {
  ! grep -rnE 'ThreadLocalSink|static[^=;]*Mutex<Vec<[A-Za-z:]*Event>>' crates/*/src \
    --include='*.rs' | grep -v '^crates/telemetry/src/'
}
## One metrics channel
# What a program measures reaches its readers four ways: the `metrics.jsonl`
# lines, the trace, a `samo-launch` worker's events file and a server's
# `ServeStats`. A store that no program reads is a fifth: no code line of
# crates/*/src names a metric registry or its handles, and its old file does
# not exist.
metrics_channel() {
  test ! -e crates/telemetry/src/registry.rs
  named=$(code $(find crates/*/src -name '*.rs' | sort) \
    | grep -E 'telemetry::global|\bRegistry\b|\bCounter\b|\bGauge\b|\.(counter|gauge|histogram)\(' || true)
  printf '%s\n' "$named"
  test -z "$named"
}
## Kernel tasks own their outputs — no raw pointer is shared between threads
# The `par_*_mut` functions of crates/tensor/src/pool.rs hand every kernel
# task the piece it writes. A `Send`/`Sync` wrapper around a raw pointer is a
# second, unchecked way to split a buffer; the pool itself needs none.
kernel_tasks() {
  ! grep -rnE 'unsafe impl[^{]*(Send|Sync)' crates/*/src --include='*.rs'
}
## Sockets are read and written in crates/comms/src/tcp/framing.rs, nowhere else
# One boundary, `FrameReader` / `FrameWriter`: a socket `read` or `write` or a
# look at the frame-size bound elsewhere in `comms` or `serve` is a second
# reader or writer, without the length guard, the bounded buffer or the write
# deadline.
sockets() {
  ! grep -rnE 'read_exact|\.read\(|write_all|\.write\(|MAX_FRAME' \
    crates/comms/src crates/serve/src --include='*.rs' \
    | grep -v '^crates/comms/src/tcp/framing.rs:'
}
## A rank waits for a peer in crates/comms/src/transport.rs, nowhere else
# One mailbox: the per-peer receiver, the held envelope and the deadline logic
# of a receive exist once, under both transports.
mailbox() {
  ! grep -rnE '^[[:space:]]*(held|inbox):' crates/comms/src crates/serve/src \
    --include='*.rs' | grep -v '^crates/comms/src/transport.rs:'
}
## One selection in prune — every mask builder ranks through crates/prune/src/select.rs
# One top-k-by-magnitude: the radix select and its `key` (NaN last, ties to
# the lower index). A comparator sort outside the test modules is a second
# order to keep total, and `sort_by` panics on
# `partial_cmp(..).unwrap_or(Equal)` since rustc 1.81.
prune_selection() {
  code -a crates/prune/src/*.rs | { ! grep -E 'select_nth_unstable_by|sort_by\(|partial_cmp'; }
}
## A mask update ranks half precision
# `maybe_remap` hands the schedule `θ16` and the f16 grow score the ring
# agreed on, and `prune::select` ranks the halves by their bits. A widening in
# its body or an f32 buffer on `StepEngine` is a dense f32 copy of a ranking
# input.
half_precision_ranking() {
  body=$(block crates/core/src/engine.rs '^    fn maybe_remap\(' '^    }$')
  engine=$(block crates/core/src/engine.rs '^pub struct StepEngine ' '^}$')
  [[ -n $body && -n $engine ]]
  printf '%s\n' "$body" "$engine" | { ! grep -nE 'widen_into|:[[:space:]]*Vec<f32>'; }
}
## The products behind a weight gradient and a kept weight are chosen in crates/tensor only
# One planner, `tensor::gemm::plan`, picks between the bit-identical products:
# `dyᵀ·x` handed over by `GradSink::take_product` and passed on to
# `matmul_tn_kept`, and `sgemm_kept` over a lent index each ask it. A layer or
# layer state in `nn` or `core` that names the planner, a cut, a streamed
# product or a pinned path has chosen.
product_planner() {
  ! grep -rnE 'plan\(|_pays|THIN_MAX_M|matmul_tn_sampled|matmul_tn_row_blocks|_on_path' \
    crates/nn/src crates/core/src --include='*.rs'
}
## The kept weight gradient does not branch per step
# Behind a ReLU most blocks of eight steps are partly live. The AVX2
# transposed kernel skips a dead step by its lanes (B zeroed, A `-0.0`): an
# `if` on a live-mask bit in its step loop mispredicts again, and a
# short-circuiting `.any(` over the row group's values is a branch per value.
kept_grad_branchless() {
  kernel=$(block crates/tensor/src/gemm.rs '^unsafe fn transposed_(row|eights)' '^}$')
  live=$(block crates/tensor/src/gemm.rs '^fn tn_chains\(' '^}$' '^impl(<[^>]*>)? RowGroup' '^}$')
  [[ -n $kernel && -n $live ]]
  printf '%s\n' "$kernel" | { ! grep -nE '\bif\b[^{]*(>>|<<|&[[:space:]]*1\b)'; }
  printf '%s\n' "$live" | { ! grep -nF '.any('; }
}
## Every non-test `unwrap`/`expect` in comms and serve proves its invariant
# Per file, `.unwrap()` / `.expect(` on code lines may not outnumber `//
# INVARIANT:` comments, and the two crates stay at or under 12. What a peer, a
# file or the OS can make fail is a typed error.
unwraps() {
  fail=0 total=0
  counts=$(code -a -p '!/^[[:space:]]*\/\// {u[FILENAME] += gsub(/\.unwrap\(\)|\.expect\(/, "&")}
    /\/\/ INVARIANT:/ {s[FILENAME]++} END {for (i = 1; i < ARGC; i++) print u[ARGV[i]] + 0, s[ARGV[i]] + 0, ARGV[i]}' \
    $(find crates/comms/src crates/serve/src -name '*.rs' | sort))
  while read -r u s f; do
    [ "$u" -eq 0 ] || printf '%3d unwrap/expect %3d INVARIANT %s\n' "$u" "$s" "$f"
    total=$((total + u))
    [ "$u" -le "$s" ] || fail=1
  done <<< "$counts"
  echo "$total non-test unwrap/expect tokens in crates/{comms,serve}/src (ceiling 12)"
  test "$fail" -eq 0
  test "$total" -le 12
}
## Every non-test `unsafe` states its contract
# Per file, `unsafe` tokens outside comments and the test module may not
# outnumber `// SAFETY:` comments, and all of crates/*/src stays at or under
# 57. The inventory is printed for the PR's CHANGES.md line.
unsafe_contracts() {
  fail=0 total=0
  counts=$(code -a -p '!/^[[:space:]]*\/\// {n = split($0, w, /[^A-Za-z0-9_]+/); while (n) u[FILENAME] += w[n--] == "unsafe"}
    /\/\/ SAFETY:/ {s[FILENAME]++} END {for (i = 1; i < ARGC; i++) print u[ARGV[i]] + 0, s[ARGV[i]] + 0, ARGV[i]}' \
    $(grep -rlw unsafe crates/*/src --include='*.rs'))
  while read -r u s f; do
    printf '%3d unsafe %3d SAFETY %s\n' "$u" "$s" "$f"
    total=$((total + u))
    [ "$u" -le "$s" ] || fail=1
  done <<< "$counts"
  echo "$total non-test unsafe tokens in crates/*/src (ceiling 57)"
  test "$fail" -eq 0
  test "$total" -le 57
}
## Nothing dead — every pub item of crates/*/src is named by shipping code
# A `pub fn|struct|enum|trait|type|const|static` on a code line of
# crates/*/src must be named on another code line — not a `use` or `mod` line
# — of crates/*/src, src/, examples/ or benchmark/src, or say which test needs
# it and why on the line above: `// TEST-API: <test, and why>`. A name
# repeated in its own file counts as a use, so items that only name each
# other — a detector with a test as its one caller — pass: the fence finds an
# item no line names, not a module no runtime runs.
nothing_dead() {
  awk '
    FNR == 1 { test_mod = 0; in_use = 0; above = "" }
    /^#\[cfg\(test\)\]/ { test_mod = 1 }
    test_mod { next }
    /^[[:space:]]*\/\// { above = $0; next }
    {
      line = $0
      if (FILENAME ~ /^crates\/[^\/]+\/src\// &&
          match(line, /^[[:space:]]*pub ((const|unsafe|async) )*(fn|struct|enum|trait|type|const|static)[[:space:]]+(mut[[:space:]]+)?[A-Za-z_][A-Za-z0-9_]*/) &&
          above !~ /^[[:space:]]*\/\/ TEST-API: /) {
        name = substr(line, RSTART, RLENGTH)
        sub(/.*[[:space:]]/, "", name)
        defs++
        def_name[defs] = name
        def_at[defs] = FILENAME ":" FNR
      }
      above = line
      if (in_use) { in_use = line !~ /;/; next }
      if (line ~ /^[[:space:]]*(pub(\([a-z]+\))? )?use /) { in_use = line !~ /;/; next }
      if (line ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod /) next
      gsub(/[^A-Za-z0-9_]+/, " ", line)
      n = split(line, word, " ")
      split("", seen)
      for (i = 1; i <= n; i++) if (!(word[i] in seen)) { seen[word[i]] = 1; lines[word[i]]++ }
    }
    END {
      for (i = 1; i <= defs; i++) if (lines[def_name[i]] < 2) { print def_at[i] ": pub " def_name[i] " is named by no shipping line"; dead++ }
      printf "%d pub items checked, %d dead\n", defs, dead
      exit (dead > 0)
    }' $(find crates/*/src src examples benchmark/src -name '*.rs' | sort)
}
## One bubble ruler
# `repro pipeline` measures the bubble, from `StageStats`, and sets it against
# Eq. 7; nothing re-derives it from a trace or a ledger. No code line of
# crates/telemetry/src (the `ls` fails if `trace.rs` or `ledger.rs` is gone)
# says "bubble", and no file of crates/bench/src but the pipeline bench and
# `repro fig3` names `analytic_bubble`.
bubble_ruler() {
  files=$(find crates/telemetry/src -name '*.rs' | sort)
  ls crates/telemetry/src/trace.rs crates/telemetry/src/ledger.rs $files > /dev/null
  code $files | { ! grep -i 'bubble'; }
  grep -rnw --include='*.rs' analytic_bubble crates/bench/src \
    | { ! grep -v -e '^crates/bench/src/pipeline_bench\.rs:' -e '^crates/bench/src/bin/repro\.rs:'; }
}
## The step engine sends first and waits once
# After backward the engine starts each collective when its input exists and
# finishes it later: the verdict flag beside the ring tail, a bucket's θ16
# gather after its optimizer pass. A blocking gather or flag call in engine.rs
# is a round trip per parameter.
send_first() {
  ! grep -nE '\b(all_gather_f16|all_true)\(' crates/core/src/engine.rs
}
## The training mesh carries training traffic
# A mesh moves activations, activation gradients and the collectives' bytes,
# nothing else: a rank group's step durations ride its rank threads' replies
# to the group's step, so no rank ships metrics to another over the wire.
training_mesh() {
  ! grep -rnE 'send_telemetry|recv_telemetry|relay_step_metrics' crates/*/src
}
## A rank waits one way
# `Mailbox::recv` is `wait_any` on one link: every wait for a peer parks on
# the mailbox's `Wake`, which a send or a closed link ends. A channel's own
# timed receive or a sleep on a delayed head is a second way to wait.
one_wait() {
  code=$(code -a -p '{print FNR": "$0}' crates/comms/src/transport.rs)
  test -n "$code"
  ! printf '%s\n' "$code" | grep -E 'recv_timeout\(|thread::sleep\('
}
## One endpoint
# `comms::Endpoint` is the one transport: the in-process and TCP wires differ
# only in how a message leaves, so its fields, fault decision and counters
# live in one `impl Transport`. `core` and `bench` name no wire: an engine
# holds an `Option<Communicator>`; a transport bound, a wire's alias or the
# old reducer types there fork the data-parallel step.
one_endpoint() {
  impls=$(grep -rnE '\bimpl(<[^>]*>)?[[:space:]]+([a-z_]+::)*Transport[[:space:]]+for\b' crates --include='*.rs' || true)
  printf '%s\n' "$impls"
  test "$(printf '%s\n' "$impls" | grep -c .)" -eq 1
  ! grep -rnE '(^|[^:]):[[:space:]]*(comms::)?Transport\b|\+[[:space:]]*(comms::)?Transport\b|\b(impl|dyn)[[:space:]]+(comms::)?Transport\b|\b(InProcTransport|TcpTransport|Reducer|NoReduce)\b|\bRing<' \
    crates/core/src crates/bench/src --include='*.rs'
}
## The ring and the codec move whole slices
# A reduce-scatter hop's arithmetic is `tensor::simd::ring_hop_tier` on whole
# segments: `collectives.rs` names neither the oracle's per-value rounding nor
# the widening table. The frame codec fills a presized buffer from the payload
# and decodes by a generic conversion: a per-element `extend_from_slice` or a
# `fn(` in `elems` is the per-value codec.
whole_slices() {
  named=$(grep -nE 'f16_mean_from_exact_sum|to_f32_table' crates/comms/src/collectives.rs || true)
  printf '%s\n' "$named"
  test -z "$named"
  code=$(code -a -p '{print FNR": "$0}' crates/comms/src/tcp/framing.rs)
  elems=$(printf '%s\n' "$code" | grep -E 'fn elems<')
  printf '%s\n' "$elems" | { ! grep -E '\bfn\('; }
  printf '%s\n' "$code" | { grep -A3 -E '\bfor\b.*\bin\b|for_each\(' || true; } | { ! grep -F 'extend_from_slice'; }
}
## One schedule
# `samo::pipeline::Schedule` alone decides which pipeline op runs next; the
# rank loop and `axonn-sim`'s simulator execute what `next()` returns. Outside
# `impl Schedule`, no code line of either file compares against
# `max_in_flight`, asks how many Ws are pending or holds a ready queue.
one_schedule() {
  code -p '/^impl Schedule \{/ {m = 1} m {m = !/^}/; next} {print FILENAME ":" FNR ": " $0}' \
    crates/core/src/pipeline.rs crates/axonn-sim/src/pipeline.rs \
    | { ! grep -E 'max_in_flight.*\s([<>]|[<>=!]=)\s|\s([<>]|[<>=!]=)\s.*max_in_flight|w_pending\(|VecDeque|(bwd|fwd)_ready'; }
}
## A mask update forms no dense weight gradient
# A weight's gradient is a W on every step, a mask update's included: a
# stage's B hands every product to `engine::Defer`, which refuses none, not a
# plain backward of the block. `SamoTrainer::step` ends by lending each weight
# a target for the next backward (`lend_grad_target`: the kept sums, or before
# an update the operand log). `maybe_remap` reads no `grad`. `Linear` adds dW
# into the dense `grad` in one arm, `GradTarget::Dense`, which
# `Parameter::grad_target` returns only while neither target is lent.
no_dense_weight_grad() {
  test -z "$(grep -n 'block\.backward(' crates/core/src/pipeline.rs)"
  step=$(block crates/core/src/trainer.rs '    pub fn step\(&mut self, model: &mut impl Layer\) -> bool \{' '^    }$')
  printf '%s\n' "$step" | tail -3 | grep -F 'self.lend_grad_target(model, true);'
  remap=$(block crates/core/src/engine.rs '    fn maybe_remap\(' '^    }$')
  test -n "$remap"
  test -z "$(printf '%s\n' "$remap" | grep -nE '\.grad\b')"
  defer=$(block crates/core/src/engine.rs '^struct Defer<' '^}$' '^impl GradSink for Defer<' '^}$')
  test -n "$defer"
  test -z "$(printf '%s\n' "$defer" | grep -nE 'bool|Err\(')"
  src=$(code -a -p '{print}' crates/nn/src/linear.rs)
  dense=$(printf '%s\n' "$src" | grep -nE 'matmul_tn_acc\(|weight\.(dense_grad|grad)\b')
  printf '%s\n' "$dense"
  test "$(printf '%s\n' "$dense" | wc -l)" -eq 1
  printf '%s\n' "$dense" | grep -F 'GradTarget::Dense(grad) => matmul_tn_acc('
  target=$(block crates/nn/src/param.rs '    pub fn grad_target\(' '^    }$')
  test "$(printf '%s\n' "$target" | grep -c 'GradTarget::Dense')" -eq 1
  printf '%s\n' "$target" | grep -B1 -F 'return GradTarget::Dense(self.dense_grad());' | head -1 \
    | grep -F 'if self.grad_sums.is_none() && self.grad_log.is_none() {'
}
## One step record, one clock
# A rank times its step on its engine's `telemetry::ledger` alone and reports
# it as its `telemetry::StepEvent` alone. No code line of engine.rs,
# pipeline.rs, threaded.rs or reference.rs reads a clock, none of crates/*/src
# but jsonl.rs spells a `t_<phase>` key, and `samo-launch` writes no `event=`
# line. Only `telemetry::ledger` says what a phase is: no line outside
# crates/telemetry/src, tests included, keeps a `phases: Vec`, copies a split
# in with `.timed(`, compares a `.name()` or lists phase names or `Phase`
# variants side by side. server.rs, replica.rs and reload.rs stamp on the
# trace clock: an `Instant` is a deadline there, never stored or elapsed.
step_record() {
  ls crates/core/src/{engine,pipeline,threaded,reference}.rs crates/bench/src/bin/samo_launch.rs crates/telemetry/src/jsonl.rs
  ls crates/serve/src/{server,replica,reload}.rs
  clocks=$(code crates/core/src/engine.rs crates/core/src/pipeline.rs crates/core/src/threaded.rs \
    crates/core/src/reference.rs | grep -E 'Instant::now|now_us|\.elapsed\(' || true)
  keys=$(code $(find crates/*/src -name '*.rs' ! -path crates/telemetry/src/jsonl.rs | sort) \
    | grep -F '"t_' || true)
  lines=$(code crates/bench/src/bin/samo_launch.rs | grep -F 'event=' || true)
  name='"(t_)?(f|b|w|send|wait|remap|compress|reduce|optimizer|gather|other)"'
  outside=$(find crates src tests examples -name '*.rs' ! -path 'crates/telemetry/src/*' | sort)
  phases=$(grep -nE "phases: Vec|\.timed\(|\.name\(\)[[:space:]]*[!=]=|[!=]=[[:space:]]*[A-Za-z_.]*\.name\(\)|$name,[[:space:]]*$name|Phase::[A-Za-z]+[[:space:]]*[,|][[:space:]]*Phase::" \
    $outside | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
  stamps=$(code crates/serve/src/{server,replica,reload}.rs \
    | grep -E 'Instant::now\(\)[[:space:]]*[,;)]|\.elapsed\(|:[[:space:]]*Instant[,;]' || true)
  printf '%s\n' "$clocks" "$keys" "$lines" "$phases" "$stamps"
  test -z "$clocks$keys$lines$phases$stamps"
}
## One timer
# Every trainer, the two oracles included, times its step on its ledger: the
# span timer that was a second step timer is gone, and a collective's time is
# charged to the caller's ledger phase.
one_timer() {
  ! grep -rnE 'telemetry::span\b|\bSpanGuard\b|\bmod span\b' crates/*/src
}
## One pipeline backward
# The B/W split, driven by the one rank, is the only way to run backward. A
# second (overlapped or accumulate-only) backward, its gradient sink, or a
# trait over two kinds of rank is a second way to run a step.
one_backward() {
  ! grep -rnE 'backward_(overlapped|accumulate)\b|\bRankWorker\b|struct Overlap\b' crates/core/src
}
## One recovery path
# Every rank restores the one checkpoint: `SamoTrainer::restore`,
# `StageRank::restore`, `RankGroup::restore` and `samo-launch`'s resync. A
# rollback that also cuts the loss scale, a one-rank restore or drill, or a
# divergence sentinel is a second path that no runtime runs.
one_recovery() {
  if [ -e crates/core/src/sentinel.rs ]; then echo "crates/core/src/sentinel.rs is back"; exit 1; fi
  ! grep -rnE '\bfn rollback\b|\b(restore_rank|rank_failure_drill|force_backoff|DivergenceSentinel)\b' crates/*/src
}
## A W moves its operands
# A B hands each weight's `dy` and `x` to its W by value
# (`GradSink::take_product`): `Defer` keeps the tensors it is given and
# `Sequential::backward_into` passes each child's `dx` on. A copy in either is
# a second buffer of every W operand.
w_moves_operands() {
  defer=$(block crates/core/src/engine.rs '^impl GradSink for Defer' '^}')
  seq=$(block crates/nn/src/layer.rs '^impl Layer for Sequential' '^}$' | block - 'fn backward_into' '^    }$')
  [[ -n $defer && -n $seq ]]
  copies=$(printf '%s\n' "$defer" | grep -nE 'extend_from_slice|to_vec|clone' || true)
  clones=$(printf '%s\n' "$seq" | grep -n 'dy\.clone()' || true)
  printf '%s\n' "$copies" "$clones"
  test -z "$copies$clones"
}

# Each fence's function and title, in file order.
fences() {
  awk '/^## / {t = substr($0, 4)} t && /^[a-z_]+\(\) \{$/ {print substr($0, 1, index($0, "(") - 1) "\t" t; t = ""}' "$self"
}
self=scripts/fences.sh
case "$1" in
  --list) fences; exit ;;
  --one) "$2"; exit ;;
esac
failed=
for fn in ${*:-$(fences | cut -f1)}; do
  title=$(fences | awk -F '\t' -v fn="$fn" '$1 == fn {print $2}')
  test -n "$title" || { echo "no fence named $fn" >&2; exit 2; }
  echo "== $title"
  # Its own process: errexit holds in the body, whatever `||` does here.
  bash -eo pipefail "$self" --one "$fn" < /dev/null || failed="$failed $fn"
done
test -z "$failed" || { echo "failed:$failed" >&2; exit 1; }
