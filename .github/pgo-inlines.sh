#!/usr/bin/env bash
# Prints the caller -> callee pairs the compiler inlines into the repro
# packages when it builds the command in directory $1, one pair per line,
# sorted, without positions. Further arguments go to go build, e.g.
# -pgo=off or -pgo=FILE.
#
#   bash .github/pgo-inlines.sh cmd/experiments
#
# Run it from the repository root. CI's "PGO profiles" step requires
# every pair in cmd/<name>/pgo-inlines.txt in its output.
#
# The compiler's -m report gives each inlined call's position and callee
# (a callee inlined inside another inlined body is reported at the outer
# call). The caller is the top-level function whose declaration precedes
# that position in its file, named <package directory>.<function>; the
# callee is named as the compiler prints it.
set -euo pipefail
dir=$1
shift
go build "$@" -gcflags='repro/...=-m' -o /dev/null "./$dir" 2>&1 |
	awk -F': inlining call to ' '
		NF == 2 {
			split($1, pos, ":")
			file = pos[1]
			if (!(file in read)) {
				read[file] = 1
				pkg = file
				sub(/\/[^\/]*$/, "", pkg)
				n = 0
				while ((getline src < file) > 0) {
					n++
					if (src !~ /^func /) continue
					name = src
					sub(/^func /, "", name)
					recv = ""
					if (name ~ /^\(/) {
						recv = name
						sub(/\).*/, "", recv)
						sub(/.* /, "", recv)
						sub(/^\(/, "", recv)
						sub(/\[.*/, "", recv)
						if (recv ~ /^\*/) recv = "(" recv ")"
						recv = recv "."
						sub(/^\([^)]*\) */, "", name)
					}
					sub(/[\[(].*/, "", name)
					nfunc[file]++
					fline[file, nfunc[file]] = n
					fname[file, nfunc[file]] = pkg "." recv name
				}
				close(file)
			}
			caller = "?"
			for (i = 1; i <= nfunc[file]; i++) {
				if (fline[file, i] > pos[2]) break
				caller = fname[file, i]
			}
			print caller " -> " $2
		}' |
	LC_ALL=C sort -u
