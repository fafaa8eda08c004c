#!/usr/bin/env bash
# reach.sh: a ratchet on dead code under internal/.
#
# It links every shipped program with inlining off (-gcflags=all=-l, so a
# small accessor the compiler would inline still shows up as a symbol) and
# asks the linker for its reachability graph (-ldflags=-dumpdep). The
# programs are the six binaries under cmd/, the four examples and the
# nested benchmark module cmd/fadewich-bench. Every function or method
# declared in a non-test file under internal/ that none of them reaches
# must be listed in scripts/reach.allow; an unlisted one fails the run.
# Listed functions that are reached again are reported, so the list can
# shrink.
#
#   scripts/reach.sh          check against scripts/reach.allow
#   scripts/reach.sh -write   rewrite scripts/reach.allow from this tree
#
# -dumpdep is an undocumented linker flag, and its output format is not
# a stable interface. The script was checked with go1.24 and refuses other
# toolchains rather than report a false pass.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
allow="$root/scripts/reach.allow"
want=go1.24
write=0
case "${1:-}" in
"") ;;
-write) write=1 ;;
*)
	echo "usage: $0 [-write]" >&2
	exit 2
	;;
esac

have=$(go env GOVERSION)
case "$have" in
"$want" | "$want".*) ;;
*)
	echo "reach.sh: checked with $want (undocumented -ldflags=-dumpdep); have $have" >&2
	exit 2
	;;
esac

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Reached symbols. Each edge is "from [flags] -> to [flags]". A generic
# instantiation ("Gather[go.shape.struct { ... }]") folds onto its
# declaration: the brackets, nested ones too, are dropped before the
# flags are cut off.
dump() { # dir pkg
	(cd "$1" && go build -gcflags=all=-l -ldflags=-dumpdep -o /dev/null "$2" 2>&1) |
		awk -F ' -> ' '
			function sym(s,   out, d, i, c) {
				if (index(s, "[")) {
					out = ""
					d = 0
					for (i = 1; i <= length(s); i++) {
						c = substr(s, i, 1)
						if (c == "[") d++
						else if (c == "]") d--
						else if (d == 0) out = out c
					}
					s = out
				}
				split(s, f, " ")
				return f[1]
			}
			NF == 2 && /fadewich\/internal\// { print sym($1); print sym($2) }'
}
{
	for p in "$root"/cmd/*/ "$root"/examples/*/; do
		name=$(basename "$p")
		[ "$name" = fadewich-bench ] && continue
		dump "$root" "./${p#"$root"/}"
	done
	dump "$root/cmd/fadewich-bench" .
} | grep '^fadewich/internal/' | sort -u >"$tmp/reached"

# Declared functions and methods, spelled as the linker spells them:
# pkg.Func, pkg.T.Method, pkg.(*T).Method.
(cd "$root" && find internal -name '*.go' ! -name '*_test.go' | sort) |
	while read -r f; do
		pkg="fadewich/$(dirname "$f")"
		awk -v pkg="$pkg" '
			/^func / {
				line = $0
				sub(/^func /, "", line)
				recv = ""
				if (line ~ /^\(/) {
					r = substr(line, 2, index(line, ")") - 2)
					line = substr(line, index(line, ")") + 1)
					sub(/^ +/, "", line)
					n = split(r, parts, " ")
					t = parts[n]
					sub(/\[.*/, "", t)
					recv = (t ~ /^\*/) ? "(" t ")." : t "."
				}
				match(line, /^[A-Za-z_0-9]+/)
				name = substr(line, 1, RLENGTH)
				if (recv == "" && name == "init") next
				print pkg "." recv name
			}' "$root/$f"
	done | sort -u >"$tmp/declared"

comm -23 "$tmp/declared" "$tmp/reached" >"$tmp/unreached"

if [ "$write" = 1 ]; then
	cp "$tmp/unreached" "$allow"
	echo "reach.sh: wrote $(wc -l <"$allow") unreached functions to ${allow#"$root"/}"
	exit 0
fi

new=$(comm -23 "$tmp/unreached" <(sort -u "$allow"))
stale=$(comm -13 "$tmp/unreached" <(sort -u "$allow"))
if [ -n "$stale" ]; then
	echo "reach.sh: reached or gone, drop from ${allow#"$root"/}:"
	echo "$stale" | sed 's/^/  /'
fi
if [ -n "$new" ]; then
	echo "reach.sh: no program reaches these, and ${allow#"$root"/} does not list them:" >&2
	echo "$new" | sed 's/^/  /' >&2
	echo "delete them, or list them if a test needs them as a helper" >&2
	exit 1
fi
echo "reach.sh: $(wc -l <"$tmp/unreached") unreached functions, all listed"
