package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"repro/internal/geom"
	"repro/internal/pdf"
	"repro/internal/store"
)

// /v1/objects is the object-level mutation API, available when the backend
// can commit (a store, or a shard router). POST upserts a batch (inserts
// assign stable IDs, updates address existing ones); DELETE removes by ID.
// Every batch commits atomically through the WAL, bumps the snapshot version
// and therefore invalidates the result cache for free — cache keys embed the
// version.

// objectSpec is one object of a POST /v1/objects batch. Exactly one payload
// field must be set. ID zero (or omitted) inserts; non-zero updates.
type objectSpec struct {
	ID      uint64       `json:"id,omitempty"`
	Uniform *uniformSpec `json:"uniform,omitempty"`
	Hist    *histSpec    `json:"hist,omitempty"`
	Disk    *diskSpec    `json:"disk,omitempty"`
}

type uniformSpec struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

type histSpec struct {
	Edges   []float64 `json:"edges"`
	Weights []float64 `json:"weights"`
}

type diskSpec struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	R float64 `json:"r"`
}

type objectsRequest struct {
	Objects []objectSpec `json:"objects"`
}

type deleteRequest struct {
	IDs []uint64 `json:"ids"`
}

// objectsResponse reports a committed mutation batch.
type objectsResponse struct {
	// Version is the snapshot version after the commit.
	Version uint64 `json:"version"`
	// Objects counts live 1-D objects after the commit.
	Objects int `json:"objects"`
	// IDs lists, per submitted object, its stable ID (POST only).
	IDs []uint64 `json:"ids,omitempty"`
	// Deleted counts removed objects (DELETE only).
	Deleted int `json:"deleted,omitempty"`
}

// MaxObjectsBatch caps one POST /v1/objects batch.
const MaxObjectsBatch = 65536

// toOp validates one spec into a store op. All numeric validation happens
// here, through the same checkFinite guard as the query paths, so malformed
// objects are 400s before any WAL traffic.
func (o objectSpec) toOp(i int) (store.Op, error) {
	set := 0
	for _, present := range []bool{o.Uniform != nil, o.Hist != nil, o.Disk != nil} {
		if present {
			set++
		}
	}
	if set != 1 {
		return store.Op{}, badRequest("objects[%d]: exactly one of uniform, hist, disk required", i)
	}
	switch {
	case o.Uniform != nil:
		if err := checkField(o.Uniform.Lo, i, "uniform.lo", -1); err != nil {
			return store.Op{}, err
		}
		if err := checkField(o.Uniform.Hi, i, "uniform.hi", -1); err != nil {
			return store.Op{}, err
		}
		u, err := pdf.NewUniform(o.Uniform.Lo, o.Uniform.Hi)
		if err != nil {
			return store.Op{}, badRequest("objects[%d]: %v", i, err)
		}
		return store.Op{Code: store.OpUniform, ID: o.ID, PDF: u}, nil
	case o.Hist != nil:
		for j, e := range o.Hist.Edges {
			if err := checkField(e, i, "hist.edges", j); err != nil {
				return store.Op{}, err
			}
		}
		for j, wt := range o.Hist.Weights {
			if err := checkField(wt, i, "hist.weights", j); err != nil {
				return store.Op{}, err
			}
		}
		h, err := pdf.NewHistogram(o.Hist.Edges, o.Hist.Weights)
		if err != nil {
			return store.Op{}, badRequest("objects[%d]: %v", i, err)
		}
		return store.Op{Code: store.OpHist, ID: o.ID, PDF: h}, nil
	default:
		if err := checkField(o.Disk.X, i, "disk.x", -1); err != nil {
			return store.Op{}, err
		}
		if err := checkField(o.Disk.Y, i, "disk.y", -1); err != nil {
			return store.Op{}, err
		}
		if err := checkField(o.Disk.R, i, "disk.r", -1); err != nil {
			return store.Op{}, err
		}
		if o.Disk.R <= 0 {
			return store.Op{}, badRequest("objects[%d]: disk radius %g must be > 0", i, o.Disk.R)
		}
		c := geom.Circle{Center: geom.Point{X: o.Disk.X, Y: o.Disk.Y}, Radius: o.Disk.R}
		return store.Op{Code: store.OpDisk, ID: o.ID, Disk: c}, nil
	}
}

// checkField is checkFinite on field name of objects[i] (element j of it
// when j >= 0). It builds the field's name only for a value that fails: a
// histogram has tens of edges and weights, and a valid one names none.
func checkField(v float64, i int, name string, j int) error {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		return nil
	}
	if j >= 0 {
		name = fmt.Sprintf("%s[%d]", name, j)
	}
	return checkFinite(fmt.Sprintf("objects[%d].%s", i, name), v)
}

// storeError maps store failures onto HTTP statuses: unknown IDs are 404s,
// semantic rejections 400s, a closed or broken store 503s.
func storeError(err error) error {
	switch {
	case errors.Is(err, store.ErrUnknownID):
		return &httpError{status: http.StatusNotFound, msg: err.Error()}
	case errors.Is(err, store.ErrInvalidOp):
		return badRequest("%v", err)
	case errors.Is(err, store.ErrFollower):
		// Belt and braces: the handlers redirect replica writes before any
		// store traffic, but a racing role check still maps cleanly.
		return &httpError{status: http.StatusForbidden, msg: err.Error()}
	case errors.Is(err, store.ErrClosed), errors.Is(err, store.ErrBroken):
		return &httpError{status: http.StatusServiceUnavailable, msg: err.Error()}
	default:
		return err
	}
}

func (s *Server) handleObjects(w http.ResponseWriter, r *http.Request) {
	s.m.requests[epObjects].Add(1)
	if err := s.be.admitWrite(r, true); err != nil {
		s.writeError(w, err)
		return
	}
	var ops []store.Op
	var err error
	switch r.Method {
	case http.MethodPost:
		ops, err = s.parseObjectsPost(w, r)
	case http.MethodDelete:
		ops, err = s.parseObjectsDelete(w, r)
	default:
		s.methodNotAllowed(w, "POST, DELETE")
		return
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	res, objects, err := s.be.apply(r.Context(), ops)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp := objectsResponse{Version: res.Version, Objects: objects}
	if r.Method == http.MethodPost {
		resp.IDs = res.IDs
	} else {
		resp.Deleted = len(ops)
	}
	writeJSON(w, http.StatusOK, resp)
}

// parseObjectsPost validates a POST /v1/objects body into upsert ops.
func (s *Server) parseObjectsPost(w http.ResponseWriter, r *http.Request) ([]store.Op, error) {
	var req objectsRequest
	if err := decodeStrict(w, r, s.cfg.MaxDatasetBytes, "objects", "", &req); err != nil {
		return nil, err
	}
	if len(req.Objects) == 0 {
		return nil, badRequest("objects batch is empty")
	}
	if len(req.Objects) > MaxObjectsBatch {
		return nil, badRequest("objects batch holds %d specs, limit %d", len(req.Objects), MaxObjectsBatch)
	}
	ops := make([]store.Op, len(req.Objects))
	for i, spec := range req.Objects {
		op, err := spec.toOp(i)
		if err != nil {
			return nil, err
		}
		ops[i] = op
	}
	return ops, nil
}

// parseObjectsDelete validates a DELETE /v1/objects request (?id=N or a JSON
// id list) into delete ops.
func (s *Server) parseObjectsDelete(w http.ResponseWriter, r *http.Request) ([]store.Op, error) {
	var ids []uint64
	if raw := query(r.URL.RawQuery).Get("id"); raw != "" {
		id, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			return nil, badRequest("parameter %q: %q is not an object id", "id", raw)
		}
		ids = []uint64{id}
	} else {
		var req deleteRequest
		if err := decodeStrict(w, r, s.cfg.MaxDatasetBytes, "delete", " (or pass ?id=N)", &req); err != nil {
			return nil, err
		}
		ids = req.IDs
	}
	if len(ids) == 0 {
		return nil, badRequest("no object ids to delete")
	}
	if len(ids) > MaxObjectsBatch {
		return nil, badRequest("delete batch holds %d ids, limit %d", len(ids), MaxObjectsBatch)
	}
	ops := make([]store.Op, len(ids))
	for i, id := range ids {
		ops[i] = store.Delete(id)
	}
	return ops, nil
}
