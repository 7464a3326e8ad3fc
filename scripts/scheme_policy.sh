#!/usr/bin/env bash
# scheme_policy.sh — keep protection-scheme policy in internal/shiftctrl.
#
# Fails when Go code outside internal/shiftctrl compares a scheme against
# one of the seven shiftctrl scheme constants (==, != or case). Ask the
# Scheme's methods (CheckMode, OpCycles, StepLimited, UsesSTS,
# FailureRates, ...) or a shiftctrl.Plans instead, so a new scheme is
# added in one package. Tests, the separate perfbench module and the
# examples are exempt.
set -uo pipefail
cd "$(dirname "$0")/.."

git grep -nE '(==|!=|case)[[:space:]]*shiftctrl\.(Baseline|STSOnly|SED|SECDED|PECCO|PECCSWorst|PECCSAdaptive)([^A-Za-z0-9_]|$)' \
	-- '*.go' ':!*_test.go' ':!internal/shiftctrl/' ':!perfbench/' ':!examples/'
case $? in
0)
	echo "scheme_policy: scheme decisions above belong in internal/shiftctrl" >&2
	exit 1
	;;
1) exit 0 ;;
*) exit 2 ;;
esac
