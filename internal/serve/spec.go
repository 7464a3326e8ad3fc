// Package serve is the multi-tenant sweep daemon behind cmd/hifi-serve:
// an HTTP/JSON job API over the existing experiment stack. Clients POST
// sweep specs, the server runs them through internal/experiments on the
// parallel engine with one shared content-addressed cache, and results
// come back three ways — pollable JSON status, rendered tables that are
// byte-identical to a direct hifi-experiments run, and a per-job SSE
// event stream with Last-Event-ID replay.
//
// Tenancy is cheap because the platform underneath is deterministic:
// identical specs fingerprint identically, a spec submitted while an
// equal one is queued or running coalesces onto that job, and a spec
// resubmitted after completion re-runs through the shared cache and
// executes nothing. Admission control (a bounded queue and per-client
// token buckets) and graceful drain (finish what is running, leave the
// rest queued in the job index for -resume) make the daemon safe to put
// in front of more clients than the machine could serve naively. See
// docs/serve.md.
package serve

import "racetrack/hifi/internal/experiments"

// Spec is one sweep request, the JSON body of POST /v1/jobs. It is
// experiments.Spec, the one description of a sweep that the CLIs fill
// from their flags: the same normalization, errors and fingerprint.
type Spec = experiments.Spec
