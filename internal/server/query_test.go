package server

import (
	"bytes"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"repro/internal/store"
)

// errJSON is the exact body writeError renders for a message, given as it
// appears inside the JSON string (quotes already escaped).
func errJSON(escaped string) string { return `{"error":"` + escaped + `"}` + "\n" }

// parseCase is one request of TestRequestParsing. An error row pins the
// status and the exact body; a 200 row names the plainly spelled URL whose
// body it must equal byte for byte.
type parseCase struct {
	url    string
	status int
	body   string // exact body of an error row
	same   string // for a 200 row: the URL answering the same body
}

// parseReferences are the plainly spelled URLs the 200 rows are held to, with
// the body prefix that shows how each one's parameters were read (gather's
// body is binary, so it pins only the status).
var parseReferences = map[string]string{
	"/v1/cpnn?q=500":                         `{"query":500,"p":0.3,"delta":0.01,"strategy":"VR","version":1,"answers":[`,
	"/v1/cpnn?q=500&p=0.2":                   `{"query":500,"p":0.2,"delta":0.01,"strategy":"VR","version":1,"answers":[`,
	"/v1/cpnn?q=500&strategy=refine":         `{"query":500,"p":0.3,"delta":0.01,"strategy":"Refine","version":1,"answers":[`,
	"/v1/cpnn?q=500&all=1":                   `{"query":500,"p":0.3,"delta":0.01,"strategy":"VR","version":1,"answers":[`,
	"/v1/pnn?q=313.7":                        `{"query":313.7,"version":1,"probabilities":[`,
	"/v1/knn?q=500&k=3":                      `{"query":500,"k":3,"p":0.3,"delta":0.01,"version":1,"answers":[`,
	"/internal/shard/bound?q=500&k=2":        `{"extent":{`,
	"/internal/shard/bound?q=500&k=1":        `{"extent":{`,
	"/internal/shard/gather?q=500&bound=20":  "",
	"/internal/shard/gather?q=500&bound=Inf": "",
}

// parseCases pins how every query endpoint reads its parameters: the rules
// of url.ParseQuery (a segment holding ';', an empty segment or a bad escape
// is skipped; '+' and %XX decode; the first match wins) and the messages of
// each parameter's validation.
var parseCases = []parseCase{
	// /v1/cpnn: q.
	{url: "/v1/cpnn?q=5e%2B2", same: "/v1/cpnn?q=500"},
	{url: "/v1/cpnn?q=500&q=abc", same: "/v1/cpnn?q=500"},
	{url: "/v1/cpnn?q=%zz&q=500", same: "/v1/cpnn?q=500"},
	{url: "/v1/cpnn?q=+500", status: 400, body: errJSON(`parameter \"q\": \" 500\" is not a finite number`)},
	{url: "/v1/cpnn?q=500;p=0.3", status: 400, body: errJSON(`missing required parameter \"q\"`)},
	{url: "/v1/cpnn?q=", status: 400, body: errJSON(`missing required parameter \"q\"`)},
	{url: "/v1/cpnn?p=0.3", status: 400, body: errJSON(`missing required parameter \"q\"`)},
	{url: "/v1/cpnn", status: 400, body: errJSON(`missing required parameter \"q\"`)},
	{url: "/v1/cpnn?q%3D500", status: 400, body: errJSON(`missing required parameter \"q\"`)},
	{url: "/v1/cpnn?Q=500", status: 400, body: errJSON(`missing required parameter \"q\"`)},
	{url: "/v1/cpnn?q=abc", status: 400, body: errJSON(`parameter \"q\": \"abc\" is not a finite number`)},
	{url: "/v1/cpnn?q=1e999", status: 400, body: errJSON(`parameter \"q\": \"1e999\" is not a finite number`)},
	{url: "/v1/cpnn?q=NaN", status: 400, body: errJSON(`parameter \"q\": NaN is not a finite number`)},
	{url: "/v1/cpnn?q=Inf", status: 400, body: errJSON(`parameter \"q\": +Inf is not a finite number`)},
	{url: "/v1/cpnn?q=-Inf", status: 400, body: errJSON(`parameter \"q\": -Inf is not a finite number`)},
	{url: "/v1/cpnn?q=%2BInf", status: 400, body: errJSON(`parameter \"q\": +Inf is not a finite number`)},
	// /v1/cpnn: p and delta.
	{url: "/v1/cpnn?q=500&p=%30.2", same: "/v1/cpnn?q=500&p=0.2"},
	{url: "/v1/cpnn?q=500&p=0.3&p=0.9", same: "/v1/cpnn?q=500"},
	{url: "/v1/cpnn?q=500&p=0.3;x", same: "/v1/cpnn?q=500"},
	{url: "/v1/cpnn?q=500&&p=0.3", same: "/v1/cpnn?q=500"},
	{url: "/v1/cpnn?q=500&p", same: "/v1/cpnn?q=500"},
	{url: "/v1/cpnn?q=500&p=%zz", same: "/v1/cpnn?q=500"},
	{url: "/v1/cpnn?q=500&p=NaN", status: 400, body: errJSON(`parameter \"p\": NaN is not a finite number`)},
	{url: "/v1/cpnn?q=500&p=Inf", status: 400, body: errJSON(`parameter \"p\": +Inf is not a finite number`)},
	{url: "/v1/cpnn?q=500&p=x", status: 400, body: errJSON(`parameter \"p\": \"x\" is not a finite number`)},
	{url: "/v1/cpnn?q=500&p=0", status: 400, body: errJSON(`verify: threshold P=0 outside (0, 1]`)},
	{url: "/v1/cpnn?q=500&p=1.5", status: 400, body: errJSON(`verify: threshold P=1.5 outside (0, 1]`)},
	{url: "/v1/cpnn?q=500&p=-0.1", status: 400, body: errJSON(`verify: threshold P=-0.1 outside (0, 1]`)},
	{url: "/v1/cpnn?q=500&delta=NaN", status: 400, body: errJSON(`parameter \"delta\": NaN is not a finite number`)},
	{url: "/v1/cpnn?q=500&delta=-Inf", status: 400, body: errJSON(`parameter \"delta\": -Inf is not a finite number`)},
	{url: "/v1/cpnn?q=500&delta=-0.1", status: 400, body: errJSON(`verify: tolerance Delta=-0.1 outside [0, 1]`)},
	{url: "/v1/cpnn?q=500&delta=1.5", status: 400, body: errJSON(`verify: tolerance Delta=1.5 outside [0, 1]`)},
	// /v1/cpnn: strategy and all.
	{url: "/v1/cpnn?q=500&strategy=%72efine", same: "/v1/cpnn?q=500&strategy=refine"},
	{url: "/v1/cpnn?q=500&strategy=%zz", same: "/v1/cpnn?q=500"},
	{url: "/v1/cpnn?q=500&strategy=monte-carlo", status: 400, body: errJSON(`unknown strategy \"monte-carlo\" (vr, refine, basic)`)},
	{url: "/v1/cpnn?q=500&strategy=VR", status: 400, body: errJSON(`unknown strategy \"VR\" (vr, refine, basic)`)},
	{url: "/v1/cpnn?q=500&all=%31", same: "/v1/cpnn?q=500&all=1"},
	{url: "/v1/cpnn?q=500&all=true", same: "/v1/cpnn?q=500"},
	// /v1/pnn.
	{url: "/v1/pnn?q=%2B313.7", same: "/v1/pnn?q=313.7"},
	{url: "/v1/pnn", status: 400, body: errJSON(`missing required parameter \"q\"`)},
	{url: "/v1/pnn?q=NaN", status: 400, body: errJSON(`parameter \"q\": NaN is not a finite number`)},
	{url: "/v1/pnn?q=abc", status: 400, body: errJSON(`parameter \"q\": \"abc\" is not a finite number`)},
	// /v1/knn.
	{url: "/v1/knn?q=500&k=%2B3", same: "/v1/knn?q=500&k=3"},
	{url: "/v1/knn?q=500&k=3&k=x", same: "/v1/knn?q=500&k=3"},
	{url: "/v1/knn?q=500&k=+3", status: 400, body: errJSON(`parameter \"k\": \" 3\" is not an integer`)},
	{url: "/v1/knn?q=500&k=x", status: 400, body: errJSON(`parameter \"k\": \"x\" is not an integer`)},
	{url: "/v1/knn?q=500&k=0", status: 400, body: errJSON(`parameter \"k\" must be in [1, 100], got 0`)},
	{url: "/v1/knn?q=500&k=-2", status: 400, body: errJSON(`parameter \"k\" must be in [1, 100], got -2`)},
	{url: "/v1/knn?q=500&k=101", status: 400, body: errJSON(`parameter \"k\" must be in [1, 100], got 101`)},
	{url: "/v1/knn?q=500", status: 400, body: errJSON(`missing required parameter \"k\"`)},
	{url: "/v1/knn?q=500&k=", status: 400, body: errJSON(`missing required parameter \"k\"`)},
	{url: "/v1/knn?k=3", status: 400, body: errJSON(`missing required parameter \"q\"`)},
	{url: "/v1/knn?q=500&k=3&p=NaN", status: 400, body: errJSON(`parameter \"p\": NaN is not a finite number`)},
	{url: "/v1/knn?q=500&k=3&delta=2", status: 400, body: errJSON(`verify: tolerance Delta=2 outside [0, 1]`)},
	// /internal/shard/bound.
	{url: "/internal/shard/bound?q=5e%2B2&k=2", same: "/internal/shard/bound?q=500&k=2"},
	{url: "/internal/shard/bound?q=500", same: "/internal/shard/bound?q=500&k=1"},
	{url: "/internal/shard/bound?k=2", status: 400, body: errJSON(`missing required parameter \"q\"`)},
	{url: "/internal/shard/bound?q=NaN&k=2", status: 400, body: errJSON(`parameter \"q\": NaN is not a finite number`)},
	{url: "/internal/shard/bound?q=500&k=0", status: 400, body: errJSON(`parameter \"k\" must be \u003e= 1, got 0`)},
	{url: "/internal/shard/bound?q=500&k=x", status: 400, body: errJSON(`parameter \"k\": \"x\" is not an integer`)},
	// /internal/shard/gather.
	{url: "/internal/shard/gather?q=500&bound=%2B20", same: "/internal/shard/gather?q=500&bound=20"},
	{url: "/internal/shard/gather?q=500&bound=%2BInf", same: "/internal/shard/gather?q=500&bound=Inf"},
	{url: "/internal/shard/gather?q=500&bound=+Inf", status: 400, body: errJSON(`parameter \"bound\": \" Inf\" is not a number`)},
	{url: "/internal/shard/gather?q=500&bound=NaN", status: 400, body: errJSON(`parameter \"bound\": \"NaN\" is not a number`)},
	{url: "/internal/shard/gather?q=500", status: 400, body: errJSON(`parameter \"bound\": \"\" is not a number`)},
	{url: "/internal/shard/gather?q=500&bound=", status: 400, body: errJSON(`parameter \"bound\": \"\" is not a number`)},
	{url: "/internal/shard/gather?bound=20", status: 400, body: errJSON(`missing required parameter \"q\"`)},
	{url: "/internal/shard/gather?q=Inf&bound=20", status: 400, body: errJSON(`parameter \"q\": +Inf is not a finite number`)},
}

// parseServers returns a storeless server for /v1/* and a shard member over
// the same dataset for /internal/shard/*.
func parseServers(t *testing.T) (single, member *Server) {
	t.Helper()
	ds := testDataset(t, 7)
	single = testServer(t, Config{Dataset: ds})
	st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	ops, err := store.DatasetOps(ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Apply(ops); err != nil {
		t.Fatal(err)
	}
	member, err = New(Config{Store: st, ShardMember: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { member.Close() })
	return single, member
}

// TestRequestParsing holds every query endpoint's parameter reading to
// pinned statuses and bodies.
func TestRequestParsing(t *testing.T) {
	single, member := parseServers(t)
	serve := func(url string) (int, []byte) {
		s := single
		if strings.HasPrefix(url, "/internal/") {
			s = member
		}
		rec := get(t, s, url)
		return rec.Code, rec.Body.Bytes()
	}
	refs := make(map[string][]byte, len(parseReferences))
	for url, prefix := range parseReferences {
		code, body := serve(url)
		if code != http.StatusOK || len(body) == 0 || !bytes.HasPrefix(body, []byte(prefix)) {
			t.Fatalf("reference %s: status %d, body %.120q; want 200 starting %q", url, code, body, prefix)
		}
		refs[url] = body
	}
	for _, tc := range parseCases {
		code, body := serve(tc.url)
		if tc.same != "" {
			want, ok := refs[tc.same]
			if !ok {
				t.Fatalf("%s: reference %s not in parseReferences", tc.url, tc.same)
			}
			if code != http.StatusOK || !bytes.Equal(body, want) {
				t.Errorf("%s: status %d, body %.120q; want 200 and the body of %s", tc.url, code, body, tc.same)
			}
			continue
		}
		if code != tc.status || string(body) != tc.body {
			t.Errorf("%s: status %d, body %q; want %d, %q", tc.url, code, body, tc.status, tc.body)
		}
	}
}

// FuzzQueryGet holds the handlers' query reader to the standard library:
// for any raw query and name, Get answers what url.ParseQuery(raw).Get
// does. Inputs stop at 10,000 bytes, below the parameter count newer Go
// releases cap ParseQuery at.
func FuzzQueryGet(f *testing.F) {
	names := []string{"q", "p", "delta", "strategy", "all", "k", "bound"}
	for _, tc := range parseCases {
		_, raw, _ := strings.Cut(tc.url, "?")
		for _, name := range names {
			f.Add(raw, name)
		}
	}
	f.Add("a%20b=c+d&a+b=x", "a b")
	f.Add("%71=1&q=2", "q")
	f.Fuzz(func(t *testing.T, raw, name string) {
		if len(raw) > 10000 {
			t.Skip()
		}
		want, _ := url.ParseQuery(raw)
		if got := query(raw).Get(name); got != want.Get(name) {
			t.Fatalf("query(%q).Get(%q) = %q, want %q", raw, name, got, want.Get(name))
		}
	})
}
