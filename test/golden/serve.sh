#!/bin/sh
# Answer a JSONL request file through `mhla serve --stdin` and print
# the responses with their two timing-dependent parts fixed:
# "elapsed_ns" becomes 0 and a deadline's "(N ms past due)" becomes
# "(0 ms past due)". Everything else is diffed byte for byte against
# serve.jsonl.expected, so any change to the service's wire bytes shows
# up as a test failure.
#
#   sh serve.sh PATH/TO/mhla_cli.exe REQUESTS.jsonl
set -eu
"$1" serve --stdin -q < "$2" |
  sed -e 's/"elapsed_ns":[0-9]*/"elapsed_ns":0/' \
      -e 's/([0-9]* ms past due)/(0 ms past due)/'
