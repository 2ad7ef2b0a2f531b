#!/bin/sh
# Run one mhla subcommand on every bundled application, in `mhla list`
# order, with a header line per application.
#
#   sh cli.sh PATH/TO/mhla_cli.exe SUBCOMMAND [FLAG...]
#
# The output is diffed against the committed *.expected files, so any
# change to the CLI's bytes shows up as a test failure.
set -eu
mhla=$1
cmd=$2
shift 2
for app in $("$mhla" list | awk 'NR > 2 { print $1 }'); do
  echo "== $app =="
  "$mhla" "$cmd" "$app" "$@"
done
