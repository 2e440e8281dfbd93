package obs

import "runtime"

// Version identifies the build. Release builds stamp it with
//
//	go build -ldflags "-X repro/internal/obs.Version=$(git describe --always)"
//
// so every log line, /healthz body and metrics scrape names the deploy.
var Version = "dev"

// BuildInfo emits the cpnn_build_info identification gauge.
func BuildInfo(e *Emitter) {
	Gauge(e, "cpnn_build_info", "Build identification; the value is always 1.", 1,
		"version", Version, "go_version", runtime.Version())
}
