package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"logan"
)

// mapTier is the server's reference-mapping subsystem: one shared
// logan.Mapper over the engine (coalescer-routed, so mapping extension
// batches share QoS lanes with /align and /jobs traffic) plus the single-slot asynchronous index build behind
// POST /map/index. Index installation is an atomic swap inside the
// Mapper, so /map requests keep serving the previous index while a
// rebuild runs.
type mapTier struct {
	mapper *logan.Mapper

	// mu guards the build slot: one index build runs at a time (a build
	// holds the whole reference and its minimizer table in flight; a
	// second concurrent one would double that for no better outcome).
	mu       sync.Mutex
	building bool
	buildErr string // last failed build's error ("" when none)
	started  time.Time
}

// mapStatusJSON is the GET /map/index payload.
type mapStatusJSON struct {
	// State is "none" (no index installed), "building" (a build or swap
	// is in flight; any previously installed index keeps serving),
	// "ready", or "failed" (last build errored; Error has the cause and
	// any previously installed index keeps serving).
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// BuildingForSec reports how long the in-flight build has been
	// running.
	BuildingForSec float64           `json:"buildingForSec,omitempty"`
	Stats          *logan.IndexStats `json:"stats,omitempty"`
}

// status snapshots the tier's state for GET /map/index and /statz.
func (mt *mapTier) status() mapStatusJSON {
	mt.mu.Lock()
	building, buildErr, started := mt.building, mt.buildErr, mt.started
	mt.mu.Unlock()
	out := mapStatusJSON{State: "none"}
	if st, ok := mt.mapper.IndexStats(); ok {
		out.State = "ready"
		out.Stats = &st
	}
	if buildErr != "" {
		out.State = "failed"
		out.Error = buildErr
	}
	if building {
		out.State = "building"
		out.BuildingForSec = time.Since(started).Seconds()
	}
	return out
}

// tryStartBuild claims the build slot; ok is false when a build is
// already running.
func (mt *mapTier) tryStartBuild() bool {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	if mt.building {
		return false
	}
	mt.building = true
	mt.buildErr = ""
	mt.started = time.Now()
	return true
}

// finishBuild releases the build slot, recording the failure if any.
func (mt *mapTier) finishBuild(err error) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	mt.building = false
	if err != nil {
		mt.buildErr = err.Error()
	}
}

// mapConfig resolves a /map request's configuration: the server's
// default X (overridable per request, capped at -max-x like /align) with
// the chaining and placement rows of the mapping table as query
// parameters.
func (s *server) mapConfig(q url.Values) (logan.MapConfig, error) {
	cfg := logan.DefaultMapConfig(s.cfg.defCfg.X)
	if err := s.setParams(cfg.Params(), q, &cfg.X); err != nil {
		return cfg, err
	}
	return cfg, cfg.Validate()
}

// handleMap is POST /map: the body is FASTA reads, the response their
// placements in PAF — byte-identical to what logan.Mapper.Map +
// WritePAF produce offline for the same reads and index, because this
// handler is exactly that call. 409 until an index is installed.
func (s *server) handleMap(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Inc()
	if s.maps == nil {
		s.fail(w, http.StatusNotFound, "mapping API disabled (-map=false)")
		return
	}
	if !s.maps.mapper.Ready() {
		s.fail(w, http.StatusConflict, "no reference index installed (POST /map/index or start with -map-ref)")
		return
	}
	cfg, err := s.mapConfig(r.URL.Query())
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	res, err := s.maps.mapper.MapFasta(r.Context(), http.MaxBytesReader(w, r.Body, s.cfg.bodyLimit), cfg)
	if err != nil {
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			s.fail(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte limit", tooBig.Limit)
		case errors.Is(err, logan.ErrOverloaded):
			s.m.shed.Inc()
			w.Header().Set("Retry-After", s.alignRetryAfter())
			s.fail(w, http.StatusTooManyRequests, "overloaded: %v", err)
		case r.Context().Err() != nil:
			s.fail(w, http.StatusRequestTimeout, "map: %v", err)
		default:
			s.fail(w, http.StatusBadRequest, "map: %v", err)
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Logan-Map-Reads", strconv.Itoa(res.Stats.Reads))
	w.Header().Set("X-Logan-Map-Mapped", strconv.Itoa(res.Stats.Mapped))
	if err := logan.WritePAF(w, res.Records); err != nil {
		s.m.writeErrors.Inc()
	}
}

// handleMapIndexBuild is POST /map/index: the body is the reference
// FASTA, k/w/maxOcc ride the query string, and the build runs
// asynchronously — 202 immediately, progress via GET /map/index. Only
// one build runs at a time (409 while one is in flight); on success the
// new index swaps in atomically and /map requests started before the
// swap finish against the index they began with.
func (s *server) handleMapIndexBuild(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Inc()
	if s.maps == nil {
		s.fail(w, http.StatusNotFound, "mapping API disabled (-map=false)")
		return
	}
	var opt logan.IndexOptions
	if err := s.setParams(opt.Params(), r.URL.Query(), nil); err != nil {
		s.fail(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	if !s.maps.tryStartBuild() {
		s.fail(w, http.StatusConflict, "an index build is already running")
		return
	}
	// Buffer the upload before returning 202: the request body dies with
	// the handler, but the build outlives it. Malformed FASTA surfaces as
	// state "failed" on GET /map/index, like any other build error.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.bodyLimit))
	if err != nil {
		s.maps.finishBuild(nil)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte limit", tooBig.Limit)
			return
		}
		s.fail(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	go func() {
		_, err := s.maps.mapper.Build(context.Background(), bytes.NewReader(body), opt)
		s.maps.finishBuild(err)
	}()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintln(w, `{"status":"building"}`)
}

// handleMapIndexStatus is GET /map/index.
func (s *server) handleMapIndexStatus(w http.ResponseWriter, _ *http.Request) {
	s.m.requests.Inc()
	if s.maps == nil {
		s.fail(w, http.StatusNotFound, "mapping API disabled (-map=false)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(s.maps.status()); err != nil {
		s.m.writeErrors.Inc()
	}
}

// mapStatzJSON is the "map" block of /statz: lifetime mapping totals
// from the registry plus the live index state.
type mapStatzJSON struct {
	Reads      int64         `json:"reads"`
	Mapped     int64         `json:"mapped"`
	Anchors    int64         `json:"anchors"`
	Chains     int64         `json:"chains"`
	Extensions int64         `json:"extensions"`
	Records    int64         `json:"records"`
	Shed       int64         `json:"shed"`
	Retries    int64         `json:"retries"`
	Index      mapStatusJSON `json:"index"`
}
