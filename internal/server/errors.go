// This file is the single place where the daemon's error taxonomy
// meets HTTP: every sentinel the handlers can surface is mapped to a
// status code in one table, and every response body — success or
// error — is written by the two helpers below. Handlers never name a
// 4xx/5xx status or call http.Error themselves; the httpstatus
// analyzer (internal/analysis) enforces that mechanically, so adding a
// new failure mode forces a deliberate entry here instead of an ad-hoc
// literal at the call site.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"repro/internal/api"
	"repro/internal/core"
)

// Sentinels owned by the server layer. Session-identity errors live in
// core (core.ErrSessionNotFound, core.ErrSessionBusy, …) because they
// describe the session model, not its transport; these describe the
// daemon itself.
var (
	// ErrQueueFull: the learn queue is at capacity; the client should
	// retry after backoff (429 + Retry-After).
	ErrQueueFull = errors.New("server: learn queue is full")
	// ErrDraining: the daemon received a shutdown signal and accepts no
	// new work.
	ErrDraining = errors.New("server: shutting down")
	// ErrBadRequest wraps malformed request bodies and invalid uploaded
	// specs.
	ErrBadRequest = errors.New("server: bad request")
	// ErrUnknownScenario: the create request named a scenario id outside
	// the configured registry.
	ErrUnknownScenario = errors.New("server: unknown scenario")
	// ErrBodyTooLarge: the request body exceeded the endpoint's size
	// cap (see maxCreateBody).
	ErrBodyTooLarge = errors.New("server: request body too large")
)

// statusTable maps taxonomy sentinels to HTTP statuses, checked in
// order with errors.Is so wrapped chains classify by their anchor.
var statusTable = []struct {
	err    error
	status int
}{
	{ErrBadRequest, http.StatusBadRequest},
	{ErrBodyTooLarge, http.StatusRequestEntityTooLarge},
	{ErrUnknownScenario, http.StatusNotFound},
	{core.ErrSessionNotFound, http.StatusNotFound},
	{core.ErrSessionNotDone, http.StatusConflict},
	{core.ErrSessionBusy, http.StatusConflict},
	{core.ErrSessionFailed, http.StatusConflict},
	{ErrQueueFull, http.StatusTooManyRequests},
	{ErrDraining, http.StatusServiceUnavailable},
	{context.Canceled, http.StatusConflict},
}

// statusOf classifies err through the table; anything unclassified is
// an internal error.
func statusOf(err error) int {
	for _, e := range statusTable {
		if errors.Is(err, e.err) {
			return e.status
		}
	}
	return http.StatusInternalServerError
}

// retryAfterSeconds is the Retry-After hint sent with 429 responses:
// learn latencies are sub-second for the benchmark suites, so a short
// backoff drains the queue without thundering retries.
const retryAfterSeconds = 1

// writeError renders err as the uniform api.ErrorV1 envelope with the
// status the taxonomy table assigns.
func writeError(w http.ResponseWriter, err error) {
	status := statusOf(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	writeJSON(w, status, api.ErrorV1{
		SchemaVersion: api.SchemaVersion,
		Error:         err.Error(),
		Status:        status,
	})
}

// writeJSON writes v as the response body with the given status. All
// handler output funnels through here so content type and encoding
// cannot drift between endpoints.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Once the header is out an encode failure (client gone mid-write)
	// has no recovery; the logging middleware records the status.
	_ = enc.Encode(v)
}
