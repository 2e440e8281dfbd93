package shard

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// The member wire protocol. A member server (cpnn-serve -shard-of) exposes
//
//	GET  /internal/shard/info              → MemberInfo (JSON)
//	GET  /internal/shard/bound?q=&k=       → BoundInfo (JSON)
//	GET  /internal/shard/gather?q=&bound=  → EncodeItems payload (octet-stream)
//	POST /internal/shard/apply             → body: store.EncodeOps payload;
//	                                          reply: WireApply (JSON)
//
// Every request carries the router's claim in ClaimHeader: a random token an
// HTTPMember draws once. A member pins the claim of the latest info request
// (a router's boot, or its resync after a failed write) and answers bound,
// gather and apply requests carrying any other claim with 409 Conflict,
// which the router reports as ErrSuperseded. A router skips members on its
// cached extents, which only its own writes keep covering every object; the
// claim makes a second router over the same members fail loudly instead of
// answering from a cache the other router's writes went around. A member
// that restarted holds no pin and adopts the first claim it sees.
//
// Every response carries the member's view version in VersionHeader. Bulk
// payloads (gather replies, apply bodies) use the store's WAL op encoding —
// IEEE float bit patterns, so a remote gather or apply is bit-identical to a
// local one; JSON is reserved for the small control structures, whose
// float64 fields round-trip exactly under Go's shortest-form encoding.

// VersionHeader carries the member's view version on every wire response.
const VersionHeader = "X-Shard-Version"

// ClaimHeader carries the router's claim on every wire request.
const ClaimHeader = "X-Shard-Router"

// WireApply is a store.ApplyResult in JSON form.
type WireApply struct {
	Version uint64   `json:"version"`
	Seq     uint64   `json:"seq"`
	IDs     []uint64 `json:"ids,omitempty"`
}

// EncodeItems serializes gathered candidates as explicit-ID upsert ops in
// the WAL payload encoding — the pdfs cross the wire bit-exactly.
func EncodeItems(items []Item) ([]byte, error) {
	ops := make([]store.Op, len(items))
	for i, it := range items {
		ops[i] = store.UpdateObject(it.ID, it.PDF)
	}
	return store.EncodeOps(ops)
}

// DecodeItems parses an EncodeItems payload.
func DecodeItems(b []byte) ([]Item, error) {
	ops, err := store.DecodeOps(b)
	if err != nil {
		return nil, err
	}
	items := make([]Item, len(ops))
	for i, op := range ops {
		if op.PDF == nil {
			return nil, fmt.Errorf("shard: gather payload op %d carries no pdf", i)
		}
		items[i] = Item{ID: op.ID, PDF: op.PDF}
	}
	return items, nil
}

// HTTPMember is the Member implementation speaking to a remote member
// server. Safe for concurrent use.
type HTTPMember struct {
	base    string
	claim   string
	hc      *http.Client
	lastVer atomic.Uint64
}

// NewHTTPMember wraps a member server's base URL (e.g. http://host:port).
// client may be nil for a default with a sane timeout.
func NewHTTPMember(base string, client *http.Client) *HTTPMember {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	var claim [16]byte
	rand.Read(claim[:]) // never fails (crypto/rand since Go 1.24)
	return &HTTPMember{base: base, claim: hex.EncodeToString(claim[:]), hc: client}
}

// observe records the version header of any successful response.
func (h *HTTPMember) observe(resp *http.Response) uint64 {
	v, err := strconv.ParseUint(resp.Header.Get(VersionHeader), 10, 64)
	if err != nil {
		return h.lastVer.Load()
	}
	for {
		cur := h.lastVer.Load()
		if v <= cur || h.lastVer.CompareAndSwap(cur, v) {
			return v
		}
	}
}

func (h *HTTPMember) get(ctx context.Context, path string, q url.Values) (*http.Response, error) {
	u := h.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	return h.do(req, path)
}

// do sends a wire request with the claim and trace headers; any status but
// 200 is an error (409 one wrapping ErrSuperseded), and a 200 reply's
// version is observed.
func (h *HTTPMember) do(req *http.Request, path string) (*http.Response, error) {
	req.Header.Set(ClaimHeader, h.claim)
	if sc, ok := obs.SpanFromContext(req.Context()); ok && sc.Sampled {
		req.Header.Set(obs.TraceHeader, sc.Header())
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		if resp.StatusCode == http.StatusConflict {
			return nil, fmt.Errorf("shard: %s: %w: %s", path, ErrSuperseded, bytes.TrimSpace(msg))
		}
		return nil, fmt.Errorf("shard: %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	h.observe(resp)
	return resp, nil
}

// Info implements Member.
func (h *HTTPMember) Info() (MemberInfo, error) {
	resp, err := h.get(context.Background(), "/internal/shard/info", nil)
	if err != nil {
		return MemberInfo{}, err
	}
	defer resp.Body.Close()
	var info MemberInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return MemberInfo{}, fmt.Errorf("shard: decoding info: %w", err)
	}
	return info, nil
}

// Bound implements Member.
func (h *HTTPMember) Bound(ctx context.Context, q float64, k int) (BoundInfo, error) {
	vals := url.Values{}
	vals.Set("q", strconv.FormatFloat(q, 'g', -1, 64))
	vals.Set("k", strconv.Itoa(k))
	resp, err := h.get(ctx, "/internal/shard/bound", vals)
	if err != nil {
		return BoundInfo{}, err
	}
	defer resp.Body.Close()
	var b BoundInfo
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
		return BoundInfo{}, fmt.Errorf("shard: decoding bound: %w", err)
	}
	return b, nil
}

// Gather implements Member.
func (h *HTTPMember) Gather(ctx context.Context, q, bound float64) ([]Item, uint64, error) {
	vals := url.Values{}
	vals.Set("q", strconv.FormatFloat(q, 'g', -1, 64))
	vals.Set("bound", strconv.FormatFloat(bound, 'g', -1, 64))
	resp, err := h.get(ctx, "/internal/shard/gather", vals)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	ver, err := strconv.ParseUint(resp.Header.Get(VersionHeader), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("shard: gather reply lacks %s", VersionHeader)
	}
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	items, err := DecodeItems(payload)
	if err != nil {
		return nil, 0, err
	}
	return items, ver, nil
}

// Apply implements Member.
func (h *HTTPMember) Apply(ctx context.Context, payload []byte) (store.ApplyResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		h.base+"/internal/shard/apply", bytes.NewReader(payload))
	if err != nil {
		return store.ApplyResult{}, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := h.do(req, "/internal/shard/apply")
	if err != nil {
		return store.ApplyResult{}, err
	}
	defer resp.Body.Close()
	var w WireApply
	if err := json.NewDecoder(resp.Body).Decode(&w); err != nil {
		return store.ApplyResult{}, fmt.Errorf("shard: decoding apply reply: %w", err)
	}
	return store.ApplyResult{Version: w.Version, Seq: w.Seq, IDs: w.IDs}, nil
}

// Version implements Member: the last version observed on any reply.
func (h *HTTPMember) Version() uint64 { return h.lastVer.Load() }

// Close implements Member.
func (h *HTTPMember) Close() error {
	h.hc.CloseIdleConnections()
	return nil
}
