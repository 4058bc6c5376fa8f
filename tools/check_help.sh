#!/bin/sh
# Render the --help=plain page of the cutfit CLI and of every subcommand
# it lists, and fail on any "cmdliner error": cmdliner reports malformed
# doc-string markup only when a page is rendered, never at build time.
#
# Usage: tools/check_help.sh PATH/TO/cutfit_cli.exe
set -eu

cli="$1"
cmds=$("$cli" --help=plain | sed -n '/^COMMANDS/,/^[A-Z]/s/^       \([a-z][a-z-]*\) .*/\1/p')
if [ -z "$cmds" ]; then
  echo "no subcommands found in the COMMANDS section of $cli --help=plain" >&2
  exit 1
fi

status=0
for cmd in "" $cmds; do
  if ! out=$("$cli" $cmd --help=plain 2>&1); then
    echo "cutfit $cmd --help=plain exited non-zero" >&2
    status=1
  fi
  if printf '%s\n' "$out" | grep -q "cmdliner error"; then
    echo "cutfit $cmd --help=plain:" >&2
    printf '%s\n' "$out" | grep "cmdliner error" >&2
    status=1
  fi
done
exit $status
