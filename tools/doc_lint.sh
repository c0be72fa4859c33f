#!/usr/bin/env bash
# Keeps the docs in sync with the code:
#   - the docs/OBSERVABILITY.md §1 metric catalog vs every
#     MetricsRegistry::counter/gauge/histogram registration under src/
#     plus every metric name in the ScanStats counter table
#     (kStatsFields in src/solap/common/stats.h), both ways;
#   - its §2 span catalog vs every TraceSpan construction and
#     AddTimedSpan call under src/, both ways;
#   - EngineOptions::<field>, ServiceOptions::<field> and
#     RemoteShardOptions::<field> mentions in README.md, DESIGN.md and
#     docs/*.md vs the fields those structs declare;
#   - every backticked `Name::member` or `Name::member()` in those docs vs
#     the words under src/.
# Fails if the code emits a name the doc omits, the doc names one the
# code no longer emits, a doc names an option that does not exist, or a
# doc names a member no source file mentions.
set -euo pipefail
cd "$(dirname "$0")/.."

DOC=docs/OBSERVABILITY.md
[[ -f "$DOC" ]] || { echo "doc-lint: $DOC missing" >&2; exit 1; }

# Registration sites look like:  metrics_.counter("queries_ok")  or, via
# a registry pointer,  metrics->histogram("net_request_ms")
literal_names=$(grep -rhoE '(\.|->)(counter|gauge|histogram)\("[a-z0-9_]+"\)' src/ |
  sed -E 's/.*\("([a-z0-9_]+)"\)/\1/' | sort -u)
[[ -n "$literal_names" ]] || { echo "doc-lint: no registrations found under src/" >&2; exit 1; }

# The query service registers one per-query counter for each row of the
# ScanStats table that names one:  {"key", &ScanStats::member, "metric"},
# optionally followed by a side column (, StatsSide::kWrite). A row may
# wrap, so the table is read as one line; "" names none.
STATS=src/solap/common/stats.h
table_names=$(sed -n '/kStatsFields\[\] = {/,/^};/p' "$STATS" | tr '\n' ' ' |
  grep -oE '\{"[a-z0-9_]+", *&ScanStats::[a-z0-9_]+, *"[a-z0-9_]*"(, *StatsSide::k[A-Za-z]+)?\}' |
  sed -E 's/^\{"[a-z0-9_]+", *&ScanStats::[a-z0-9_]+, *"([a-z0-9_]*)".*/\1/' |
  grep . | sort -u || true)
[[ -n "$table_names" ]] || { echo "doc-lint: no metric names in the $STATS counter table" >&2; exit 1; }

code_names=$(printf '%s\n%s\n' "$literal_names" "$table_names" | sort -u)

# The metric catalog section lists each metric as a backticked table
# entry: | `name` | ... (other sections table span names the same way,
# so only the catalog section is scanned).
doc_names=$(sed -n '/^## 1\. Metric catalog/,/^## 2\./p' "$DOC" |
  grep -oE '^\| `[a-z0-9_]+` \|' |
  sed -E 's/^\| `([a-z0-9_]+)` \|/\1/' | sort -u)

fail=0
missing_in_doc=$(comm -23 <(echo "$code_names") <(echo "$doc_names"))
if [[ -n "$missing_in_doc" ]]; then
  echo "doc-lint: metrics registered in src/ (or named by $STATS) but undocumented in $DOC:" >&2
  echo "$missing_in_doc" | sed 's/^/  /' >&2
  fail=1
fi
stale_in_doc=$(comm -13 <(echo "$code_names") <(echo "$doc_names"))
if [[ -n "$stale_in_doc" ]]; then
  echo "doc-lint: metrics documented in $DOC but neither registered in src/ nor named by $STATS:" >&2
  echo "$stale_in_doc" | sed 's/^/  /' >&2
  fail=1
fi

# Span emission sites look like:  TraceSpan span(trace, "ingest.append")
# (possibly with more arguments) or retroactive recording via
# trace->AddTimedSpan("service.queue_wait", ...).
code_spans=$( (grep -rhoE 'TraceSpan [A-Za-z_]+\([^;"]*"[a-z._0-9]+"' src/ |
    grep -oE '"[a-z._0-9]+"';
  grep -rhoE 'AddTimedSpan\("[a-z._0-9]+"' src/ |
    grep -oE '"[a-z._0-9]+"') |
  tr -d '"' | sort -u)
[[ -n "$code_spans" ]] || { echo "doc-lint: no span sites found under src/" >&2; exit 1; }

# The §2 span catalog lists each span as a backticked table entry.
doc_spans=$(sed -n '/^## 2\. Trace spans/,/^## 3\./p' "$DOC" |
  grep -oE '^\| `[a-z._0-9]+` \|' |
  sed -E 's/^\| `([a-z._0-9]+)` \|/\1/' | sort -u)

spans_missing_in_doc=$(comm -23 <(echo "$code_spans") <(echo "$doc_spans"))
if [[ -n "$spans_missing_in_doc" ]]; then
  echo "doc-lint: spans emitted in src/ but undocumented in $DOC:" >&2
  echo "$spans_missing_in_doc" | sed 's/^/  /' >&2
  fail=1
fi
spans_stale_in_doc=$(comm -13 <(echo "$code_spans") <(echo "$doc_spans"))
if [[ -n "$spans_stale_in_doc" ]]; then
  echo "doc-lint: spans documented in $DOC but not emitted in src/:" >&2
  echo "$spans_stale_in_doc" | sed 's/^/  /' >&2
  fail=1
fi

# Option mentions: every <Struct>::<field> named in README.md, DESIGN.md
# or docs/*.md must be a field that struct declares in its header.
# struct_fields prints a struct's field names. Comments are dropped and
# the body is read as one string split at the top-level semicolons, so a
# declaration may span lines; anything inside braces or parentheses (an
# initializer such as `retry{.max_attempts = 3, ...}`) and anything after
# a top-level `=` is skipped, and the name is the last identifier left:
#   size_t exec_threads = 1;   std::string shard_by = {};
#   RetryPolicy retry{...};    std::chrono::milliseconds default_timeout{0};
struct_fields() {  # struct_fields <header> <struct>
  sed -n "/^struct $2 {/,/^};/p" "$1" | sed -e '1d;$d' -e 's://.*$::' |
    awk '{ body = body " " $0 }
      END {
        depth = 0
        decl = ""
        for (i = 1; i <= length(body); i++) {
          c = substr(body, i, 1)
          if (c == "{" || c == "(") { depth++; continue }
          if (c == "}" || c == ")") { depth--; continue }
          if (depth > 0) continue
          if (c != ";") { decl = decl c; continue }
          sub(/=.*/, "", decl)
          if (match(decl, /[A-Za-z_][A-Za-z0-9_]*[ \t]*$/)) {
            name = substr(decl, RSTART, RLENGTH)
            gsub(/[ \t]/, "", name)
            print name
          }
          decl = ""
        }
      }' | sort -u
}

options_named=0
check_options() {  # check_options <struct> <header>
  local fields named stale
  fields=$(struct_fields "$2" "$1")
  if [[ -z "$fields" ]]; then
    echo "doc-lint: no $1 fields found in $2" >&2
    fail=1
    return
  fi
  named=$( (grep -ohE "\b$1::[A-Za-z_][A-Za-z0-9_]*" \
      README.md DESIGN.md docs/*.md || true) |
    sed "s/^$1:://" | sort -u)
  stale=$(comm -13 <(echo "$fields") <(echo "$named") | grep . || true)
  if [[ -n "$stale" ]]; then
    echo "doc-lint: $1 fields named in the docs but not declared in $2:" >&2
    echo "$stale" | sed "s/^/  $1::/" >&2
    fail=1
  fi
  options_named=$((options_named + $(echo "$named" | grep -c . || true)))
}
check_options EngineOptions src/solap/engine/engine.h
check_options ServiceOptions src/solap/service/query_service.h
check_options RemoteShardOptions src/solap/engine/remote_shard.h

# Qualified names: the member of every backticked `A::b` or `A::b()` in
# README.md, DESIGN.md or docs/*.md must occur as a word under src/, so a
# renamed or deleted function cannot linger in the docs.
qualified=$( (grep -ohE '`[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+(\(\))?`' \
    README.md DESIGN.md docs/*.md || true) |
  tr -d '`' | sed -E 's/\(\)$//' | sort -u)
qualified_stale=""
while read -r name; do
  [[ -z "$name" ]] && continue
  grep -rqw -- "${name##*::}" src/ || qualified_stale+="  $name"$'\n'
done <<< "$qualified"
if [[ -n "$qualified_stale" ]]; then
  echo "doc-lint: qualified names in the docs whose member no file under src/ mentions:" >&2
  printf '%s' "$qualified_stale" >&2
  fail=1
fi

if [[ "$fail" -ne 0 ]]; then exit 1; fi
echo "ok: $(echo "$code_names" | wc -l) metric names and $(echo "$code_spans" | wc -l) span names in sync with $DOC;" \
  "$options_named option fields named in the docs all declared;" \
  "$(echo "$qualified" | grep -c . || true) qualified names in the docs all found under src/"
