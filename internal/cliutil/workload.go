package cliutil

import (
	"fmt"
	"strings"

	"racetrack/hifi/internal/trace"
)

// Workload resolves a -workload flag. An unknown name is an error that
// names the flag and lists the workloads there are.
func Workload(name string) (trace.Workload, error) {
	w, err := trace.ByName(name)
	if err != nil {
		var names []string
		for _, w := range trace.PARSEC() {
			names = append(names, w.Name)
		}
		return w, fmt.Errorf("-workload %s: %v (workloads: %s)", name, err, strings.Join(names, " "))
	}
	return w, nil
}
