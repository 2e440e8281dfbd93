// Example serveclient drives the C-PNN query service over real HTTP, the way
// a remote LBS client would. It starts the server in-process on a loopback
// port (the stand-alone equivalent is `cpnn-serve -data ...`), then walks
// the API: health check, a C-PNN query issued twice to show the result cache,
// a nearby query collapsed by quantization, exact PNN probabilities, a
// constrained k-NN, and finally an atomic dataset reload that the next query
// observes.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"

	pnn "repro"
	"repro/internal/server"
)

func main() {
	// A small fleet of uncertain taxis on a 1-D road, then a query service
	// over it. Quantum 1 means queries within the same 1-unit bucket share
	// one cached (exactly evaluated) answer.
	ds := pnn.NewDataset([]pnn.PDF{
		pnn.MustUniform(8, 18),
		pnn.MustUniform(9, 13),
		pnn.MustUniform(20, 25),
		pnn.MustUniform(11, 16),
	})
	srv, err := server.New(server.Config{Dataset: ds, Source: "taxis", Quantum: 1})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, srv.Handler())
	base := "http://" + ln.Addr().String()

	show("health", get(base+"/healthz"))

	// The same C-PNN twice: the second response is served from the cache
	// (X-Cache: hit) and is byte-identical to the first.
	show("C-PNN q=12 (cold)", get(base+"/v1/cpnn?q=12&p=0.3&delta=0.01"))
	show("C-PNN q=12 (warm)", get(base+"/v1/cpnn?q=12&p=0.3&delta=0.01"))
	// q=12.3 snaps to the same 1-unit bucket as q=12 — another cache hit.
	show("C-PNN q=12.3 (snapped)", get(base+"/v1/cpnn?q=12.3&p=0.3&delta=0.01"))

	show("PNN q=12", get(base+"/v1/pnn?q=12"))
	show("C-P2NN q=12", get(base+"/v1/knn?q=12&k=2&p=0.3&all=1"))

	// A batch: one request, one dataset snapshot, per-point cache checks.
	// q=12 is already cached from above ("hit"); the rest are fresh misses.
	batch := `{"queries":[12, 15, 22.5], "p":0.3, "delta":0.01}`
	resp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader([]byte(batch)))
	if err != nil {
		log.Fatal(err)
	}
	show("batch [12 15 22.5]", resp)

	// Atomic reload: serialize a new fleet and POST it. In-flight queries
	// finish against the old snapshot; the next query sees version 2.
	moved := pnn.NewDataset([]pnn.PDF{
		pnn.MustUniform(30, 40),
		pnn.MustUniform(10, 14),
	})
	var buf bytes.Buffer
	if _, err := moved.WriteTo(&buf); err != nil {
		log.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/dataset?source=moved", "text/plain", &buf)
	if err != nil {
		log.Fatal(err)
	}
	show("reload", resp)
	show("C-PNN q=12 after reload", get(base+"/v1/cpnn?q=12&p=0.3&delta=0.01"))
}

func get(url string) *http.Response {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	return resp
}

// show prints one response compactly, surfacing the cache disposition.
func show(label string, resp *http.Response) {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, body); err != nil {
		compact.Write(body)
	}
	cache := resp.Header.Get("X-Cache")
	if cache != "" {
		cache = " cache=" + cache
	}
	fmt.Printf("%-26s [%d%s] %s\n", label, resp.StatusCode, cache, compact.Bytes())
}
