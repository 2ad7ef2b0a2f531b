#!/bin/sh
# --verify-live on a portfolio: `mhla run --portfolio` must print the
# winner's `verify-live:` report on stderr and leave stdout as the
# plain run's, and `mhla serve` must answer a portfolio request with
# the `verify` field a solve response carries.
#
#   sh verify_live.sh PATH/TO/mhla_cli.exe PORTFOLIO_REQUEST.jsonl
set -eu
mhla=$1
request=$2
fail() {
  echo "verify_live.sh: $*" >&2
  exit 1
}

"$mhla" run qsdpcm --portfolio -j 1 >plain.out 2>/dev/null
"$mhla" run qsdpcm --portfolio -j 1 --verify-live >live.out 2>live.err
cmp -s plain.out live.out ||
  fail "run --portfolio --verify-live stdout differs from the plain race"
grep -q '^verify-live: ' live.err ||
  fail "run --portfolio --verify-live printed no verify-live: report"
"$mhla" run qsdpcm --portfolio -j 1 --verify-live -q >/dev/null 2>quiet.err
[ ! -s quiet.err ] || fail "run --portfolio --verify-live -q wrote to stderr"

"$mhla" serve --stdin --verify-live <"$request" >live.jsonl 2>/dev/null
grep -q '"status":"ok"' live.jsonl || fail "serve answered no ok response"
grep -q '"verify":{' live.jsonl ||
  fail "serve --verify-live answered a portfolio without its verify field"
"$mhla" serve --stdin <"$request" >plain.jsonl 2>/dev/null
if grep -q '"verify"' plain.jsonl; then
  fail "serve without --verify-live answered a verify field"
fi
