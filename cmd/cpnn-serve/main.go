// Command cpnn-serve runs the C-PNN query service: a long-lived engine
// behind an HTTP/JSON API with a sharded result cache, singleflight
// collapsing, a bounded evaluation pool, atomic dataset reloads — and, with
// -data-dir, a durable store: object-level updates through a write-ahead
// log, checkpoints, and crash recovery on boot.
//
// Replication: a primary with -replicate-addr streams its WAL to followers;
// a process started with -follow (plus its own -data-dir) replays that
// stream into a local read-only store and serves queries, monitors and SSE
// off the replayed views — answering 503 until its first catch-up and
// redirecting writes to the primary's -advertise-http address.
//
// Sharding: -shards K serves one process over K STR-partitioned member
// stores under -data-dir, scatter-gathering every query (see
// internal/shard). The same cluster directory also runs multi-process:
// each member with -shard-of i, and a stateless front with -router
// listing the member URLs in shard order (the layout comes from the
// cluster's shard.json). Use `cpnn-store split` to shard an existing
// single-store directory.
//
// Examples:
//
//	cpnn-serve -gen -addr :8080                 # serve the Long-Beach-like dataset
//	cpnn-serve -data intervals.txt -quantum 1   # serve a file, snap queries to 1 unit
//	cpnn-serve -gen -data-dir /var/lib/cpnn     # durable: updates survive restarts
//
//	# primary + read replica
//	cpnn-serve -gen -data-dir /var/lib/cpnn -replicate-addr :7071 -advertise-http http://10.0.0.1:8080
//	cpnn-serve -addr :8081 -data-dir /var/lib/cpnn-replica -follow 10.0.0.1:7071
//
//	# single-process sharded serving (creates the cluster on first boot)
//	cpnn-serve -gen -data-dir /var/lib/cpnn-cluster -shards 4
//
//	# the same cluster as one process per shard plus a router
//	cpnn-serve -addr :8091 -data-dir /var/lib/cpnn-cluster -shard-of 0
//	cpnn-serve -addr :8092 -data-dir /var/lib/cpnn-cluster -shard-of 1
//	cpnn-serve -addr :8080 -data-dir /var/lib/cpnn-cluster -router http://127.0.0.1:8091,http://127.0.0.1:8092
//
//	curl 'localhost:8080/v1/cpnn?q=5000&p=0.3&delta=0.01'
//	curl 'localhost:8080/v1/pnn?q=5000'
//	curl 'localhost:8080/v1/knn?q=5000&k=3&p=0.3'
//	curl -X POST --data-binary @new.txt 'localhost:8080/v1/dataset?source=new.txt'
//	curl -X POST -d '{"objects":[{"uniform":{"lo":10,"hi":20}}]}' localhost:8080/v1/objects
//	curl -X DELETE 'localhost:8080/v1/objects?id=7'
//	curl -X POST -d '{"kind":"cpnn","q":5000,"p":0.3}' localhost:8080/v1/monitors
//	curl -N 'localhost:8080/v1/subscribe'          # SSE stream of answer updates
//	curl 'localhost:8080/metrics'
//
// On SIGINT/SIGTERM the server drains gracefully: /healthz flips to
// not-ready, in-flight requests finish (up to -drain-timeout), then the WAL
// is checkpointed, flushed and closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/uncertain"
)

func main() {
	if err := run(context.Background(), os.Args[1:], nil); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h already printed usage; that is not a failure
		}
		fmt.Fprintln(os.Stderr, "cpnn-serve:", err)
		os.Exit(1)
	}
}

// serveOpts collects the data-source and replication flags that decide how
// the server is assembled.
type serveOpts struct {
	dataPath   string
	gen        bool
	seed       int64
	dataDir    string
	noSync     bool
	cacheBytes int64

	follow        string // replica mode: primary's replication address
	replicateAddr string // primary mode: replication listen address
	advertiseHTTP string // write-redirect target sent to followers

	shards     int    // single-process sharding: member count for a new cluster under dataDir
	shardOf    int    // member mode: shard index within the dataDir cluster (-1 = off)
	routerURLs string // multi-process router mode: member base URLs in shard order
}

// run is the whole program behind main, factored out so tests can drive the
// graceful-shutdown path with a cancelable context. ready, when non-nil,
// receives the bound address once the listener is up.
func run(ctx context.Context, args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("cpnn-serve", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		dataPath     = fs.String("data", "", "dataset file (cpnn-datagen format)")
		gen          = fs.Bool("gen", false, "generate the Long-Beach-like dataset instead of loading one")
		seed         = fs.Int64("seed", 1, "generator seed for -gen")
		dataDir      = fs.String("data-dir", "", "durable store directory (enables /v1/objects, WAL, crash recovery)")
		noSync       = fs.Bool("no-fsync", false, "skip the per-commit fsync (faster, loses recent batches on crash)")
		cacheBytes   = fs.Int64("cache-bytes", 0, "page-cache budget for faulting object payloads from the base checkpoint (0 = 64 MiB default; store mode only)")
		replAddr     = fs.String("replicate-addr", "", "replication listen address: stream the WAL to followers (requires -data-dir)")
		follow       = fs.String("follow", "", "run as a read replica of this primary replication address (requires -data-dir)")
		advertise    = fs.String("advertise-http", "", "HTTP URL advertised to followers as the write-redirect target (with -replicate-addr)")
		shards       = fs.Int("shards", 0, "serve a K-shard cluster under -data-dir in one process, scatter-gathering queries (created on first boot from -gen/-data)")
		shardOf      = fs.Int("shard-of", -1, "serve shard i of the -data-dir cluster as a member process for a -router front (direct writes are refused)")
		routerURLs   = fs.String("router", "", "serve as a scatter-gather router over these comma-separated member URLs, in shard order (layout from -data-dir's shard.json; members must be up)")
		quantum      = fs.Float64("quantum", 0, "cache query-point quantization granularity (0 = exact keys)")
		cacheSize    = fs.Int("cache", server.DefaultCacheEntries, "result-cache capacity in entries (negative disables)")
		maxInFlight  = fs.Int("max-inflight", 0, "max concurrent evaluations (0 = 2×GOMAXPROCS)")
		queueTimeout = fs.Duration("queue-timeout", 0, "max wait for a worker slot before shedding a 503 (0 = 10s, negative = wait forever)")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "max wait for in-flight requests on shutdown")
		monWorkers   = fs.Int("monitor-workers", 0, "continuous-query re-evaluation workers (0 = GOMAXPROCS; store mode only)")
		monStateB    = fs.Int64("monitor-state-bytes", 0, "memory cap for per-query incremental evaluation states (0 = 64 MiB default, negative = uncapped; store mode only)")
		debugAddr    = fs.String("debug-addr", "", "serve net/http/pprof on this private address (empty = off)")
		slowQueryMs  = fs.Int("slow-query-ms", 0, "record requests at or above this many milliseconds in GET /debug/slowlog (0 = off)")
	)
	var lo obs.LogOptions
	lo.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := lo.Logger(os.Stderr, "cpnn-serve")
	if err != nil {
		return err
	}
	kit := obsKit{
		log:    logger,
		tracer: obs.NewTracer(0),
		reg:    obs.NewRegistry(),
	}

	app, err := buildServer(serveOpts{
		dataPath: *dataPath, gen: *gen, seed: *seed,
		dataDir: *dataDir, noSync: *noSync, cacheBytes: *cacheBytes,
		follow: *follow, replicateAddr: *replAddr, advertiseHTTP: *advertise,
		shards: *shards, shardOf: *shardOf, routerURLs: *routerURLs,
	}, server.Config{
		Quantum:            *quantum,
		CacheEntries:       *cacheSize,
		MaxInFlight:        *maxInFlight,
		QueueTimeout:       *queueTimeout,
		MonitorWorkers:     *monWorkers,
		MonitorStateBytes:  *monStateB,
		Logger:             logger,
		Tracer:             kit.tracer,
		Metrics:            kit.reg,
		SlowQueryThreshold: time.Duration(*slowQueryMs) * time.Millisecond,
	}, kit)
	if err != nil {
		return err
	}
	srv, closeAll := app.srv, app.Close
	switch {
	case app.fol != nil:
		logger.Info("starting as replica (reads 503 until caught up)",
			"primary", app.fol.Source(), "addr", *addr)
	case app.router != nil:
		logger.Info("starting scatter-gather router",
			"shards", app.router.Shards(), "objects", app.router.Objects(),
			"source", app.source, "addr", *addr)
	default:
		logger.Info("starting",
			"objects", srv.Snapshot().Objects, "source", app.source,
			"snapshot_version", srv.Snapshot().Version, "addr", *addr)
	}
	if app.repl != nil {
		logger.Info("replicating the WAL", "replicate_addr", app.repl.Addr())
	}
	if *debugAddr != "" {
		dln, err := listen(*debugAddr)
		if err != nil {
			closeAll()
			return fmt.Errorf("-debug-addr: %w", err)
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/debug/traces", kit.tracer)
		dbg := &http.Server{Handler: dmux}
		go dbg.Serve(dln)
		defer dbg.Close()
		logger.Info("pprof listening", "debug_addr", dln.Addr().String())
	}

	ctx, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	ln, err := listen(*addr)
	if err != nil {
		closeAll()
		return err
	}
	go func() { errCh <- httpSrv.Serve(ln) }()
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-errCh:
		closeAll()
		return err
	case <-ctx.Done():
	}

	// Graceful drain: not-ready first, then stop accepting and wait for
	// in-flight requests, then flush the store to disk.
	logger.Info("draining", "max", (*drainTimeout).String())
	srv.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("shutdown", "err", err)
	}
	if err := closeAll(); err != nil && !errors.Is(err, store.ErrClosed) {
		return fmt.Errorf("closing store: %w", err)
	}
	logger.Info("stopped cleanly")
	return nil
}

// obsKit bundles the process-wide observability sinks: the structured
// logger, the trace ring behind /debug/traces, and the collector registry
// the server appends to /metrics.
type obsKit struct {
	log    *slog.Logger
	tracer *obs.Tracer
	reg    *obs.Registry
}

// routerObs builds the router's observability hooks and registers its
// histogram families (per-member hop latency by op and shard, gather
// fan-out) for the /metrics scrape.
func (k obsKit) routerObs() shard.Obs {
	member := obs.NewHistogramVec("cpnn_server_shard_member_seconds",
		"Per-member scatter-gather hop latency, by op and shard.",
		[]string{"op", "shard"}, nil)
	fanout := obs.NewHistogram("cpnn_server_shard_fanout_members",
		"Members the gather phase actually read, per query.", obs.FanoutBuckets)
	k.reg.Register(member)
	k.reg.Register(fanout)
	return shard.Obs{
		Tracer:        k.tracer,
		Logger:        k.log.With("subsystem", "shard"),
		MemberSeconds: member,
		Fanout:        fanout,
	}
}

// storeOptions attaches the structured logger to a member/primary store.
func (k obsKit) storeOptions(o store.Options) store.Options {
	o.Logger = k.log.With("subsystem", "store")
	return o
}

// serveApp is the assembled process: the HTTP server plus whichever
// replication or sharding machinery the flags asked for.
type serveApp struct {
	srv     *server.Server
	st      *store.Store // the store opened for srv, closed by it once it exists
	fol     *replica.Follower
	repl    *replica.Server
	router  *shard.Router  // -shards / -router: the scatter-gather front
	cluster *shard.Cluster // -shards: locally-open member stores
	source  string
}

// Close tears the assembly down in dependency order: the follower stops
// applying before the replication listener stops streaming, both before the
// server checkpoints and closes its store (or, when buildServer failed
// before the server existed, the store is closed bare), and the router's
// members and the cluster's member stores last (the server only borrows
// them).
func (a *serveApp) Close() error {
	if a.fol != nil {
		a.fol.Close()
	}
	if a.repl != nil {
		a.repl.Close()
	}
	var err error
	if a.srv != nil {
		err = a.srv.Close()
	} else if a.st != nil {
		err = a.st.Close()
	}
	if a.router != nil {
		a.router.Close()
	}
	if a.cluster != nil {
		if cerr := a.cluster.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// buildServer validates flags, loads or recovers the dataset, attaches
// replication or sharding, and assembles the server. All user input is
// checked before any engine is built.
func buildServer(o serveOpts, cfg server.Config, kit obsKit) (*serveApp, error) {
	if kit.log == nil {
		// Tests construct the app without an obsKit; every sink is nil-safe
		// except the logger, which slog requires to be non-nil.
		kit.log = obs.Discard()
	}
	a := &serveApp{}
	fail := func(err error) (*serveApp, error) {
		a.Close()
		return nil, err
	}

	// The three sharding modes all hang off a cluster directory in -data-dir
	// and pick exactly one role per process.
	shardModes := 0
	for _, on := range []bool{o.shards > 0, o.shardOf >= 0, o.routerURLs != ""} {
		if on {
			shardModes++
		}
	}
	if shardModes > 1 {
		return fail(fmt.Errorf("-shards, -shard-of and -router are mutually exclusive"))
	}
	if shardModes == 1 {
		if o.dataDir == "" {
			return fail(fmt.Errorf("-shards/-shard-of/-router require -data-dir (the cluster directory)"))
		}
		if o.follow != "" {
			return fail(fmt.Errorf("-follow does not combine with sharding; replicate individual member stores instead"))
		}
		if o.replicateAddr != "" && o.shardOf < 0 {
			// A member process may ship its own WAL onward; the router and
			// the single-process cluster have no single WAL to ship.
			return fail(fmt.Errorf("-replicate-addr applies to single stores and -shard-of members, not routers"))
		}
	}

	switch {
	case o.routerURLs != "":
		// Stateless scatter-gather front: the layout comes from the cluster
		// metadata, the data stays in the member processes.
		if o.gen || o.dataPath != "" {
			return fail(fmt.Errorf("-router is mutually exclusive with -gen/-data: the dataset lives in the member stores"))
		}
		meta, err := shard.ReadMeta(o.dataDir)
		if err != nil {
			return fail(err)
		}
		var urls []string
		for _, u := range strings.Split(o.routerURLs, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) != meta.Shards {
			return fail(fmt.Errorf("-router lists %d members for the %d-shard cluster in %s", len(urls), meta.Shards, o.dataDir))
		}
		members := make([]shard.Member, len(urls))
		for i, u := range urls {
			members[i] = shard.NewHTTPMember(u, nil)
		}
		rt, err := shard.NewRouter(shard.RouterConfig{
			Members: members, Cuts: meta.Cuts, NextID: meta.NextID,
			Obs: kit.routerObs(),
		})
		if err != nil {
			return fail(err)
		}
		a.router = rt
		cfg.ShardRouter = rt
		a.source = fmt.Sprintf("router:%s", o.dataDir)

	case o.shardOf >= 0:
		// Member mode: one shard's store behind the wire protocol. Reads
		// serve normally; writes arrive only through a router.
		if o.gen || o.dataPath != "" {
			return fail(fmt.Errorf("-shard-of is mutually exclusive with -gen/-data: members are filled through the router"))
		}
		meta, err := shard.ReadMeta(o.dataDir)
		if err != nil {
			return fail(err)
		}
		if o.shardOf >= meta.Shards {
			return fail(fmt.Errorf("-shard-of %d: the cluster in %s has %d shards", o.shardOf, o.dataDir, meta.Shards))
		}
		a.st, err = store.Open(shard.Dir(o.dataDir, o.shardOf),
			kit.storeOptions(store.Options{NoSync: o.noSync, CacheBytes: o.cacheBytes, ExplicitIDs: true}))
		if err != nil {
			return fail(err)
		}
		cfg.Store = a.st
		cfg.ShardMember = true
		a.source = fmt.Sprintf("shard %d of %s", o.shardOf, o.dataDir)
		cfg.Source = a.source

	case o.shards > 0:
		// Single-process cluster: open an existing layout, or partition a
		// seed dataset into a fresh one.
		if _, err := os.Stat(filepath.Join(o.dataDir, shard.MetaFile)); err == nil {
			cluster, err := shard.OpenCluster(o.dataDir, kit.storeOptions(store.Options{NoSync: o.noSync, CacheBytes: o.cacheBytes}))
			if err != nil {
				return fail(err)
			}
			a.cluster = cluster
			if cluster.Meta.Shards != o.shards {
				kit.log.Warn("cluster already laid out; ignoring -shards",
					"dir", o.dataDir, "have", cluster.Meta.Shards, "flag", o.shards)
			}
			if o.gen || o.dataPath != "" {
				kit.log.Warn("cluster already exists; ignoring -gen/-data", "dir", o.dataDir)
			}
		} else {
			ds, _, err := loadDataset(o.dataPath, o.gen, o.seed)
			if err != nil {
				return fail(fmt.Errorf("creating a %d-shard cluster: %w", o.shards, err))
			}
			// Seed with the same stable IDs a single store's dataset load
			// would assign, so splitting and serving commute.
			ids := make([]uint64, ds.Len())
			for i := range ids {
				ids[i] = uint64(i + 1)
			}
			view := &store.View{Dataset: ds, IDs: ids, NextID: uint64(ds.Len()) + 1}
			cluster, err := shard.CreateCluster(o.dataDir, o.shards, view, kit.storeOptions(store.Options{NoSync: o.noSync, CacheBytes: o.cacheBytes}))
			if err != nil {
				return fail(err)
			}
			a.cluster = cluster
		}
		rt, err := a.cluster.RouterObs(kit.routerObs())
		if err != nil {
			return fail(err)
		}
		a.router = rt
		cfg.ShardRouter = rt
		cfg.ShardCluster = a.cluster
		a.source = fmt.Sprintf("cluster:%s", o.dataDir)

	case o.follow != "":
		// Replica mode: the dataset comes from the primary, never from flags.
		if o.dataDir == "" {
			return fail(fmt.Errorf("-follow requires -data-dir (the replica keeps its own durable copy)"))
		}
		if o.gen || o.dataPath != "" {
			return fail(fmt.Errorf("-follow is mutually exclusive with -gen/-data: the dataset is replicated from the primary"))
		}
		var err error
		a.st, err = store.OpenFollower(o.dataDir, kit.storeOptions(store.Options{NoSync: o.noSync, CacheBytes: o.cacheBytes}))
		if err != nil {
			return fail(err)
		}
		applyLag := obs.NewHistogram("cpnn_server_replica_apply_lag_seconds",
			"Follower lag behind the primary, observed after each applied batch.", obs.LagBuckets)
		kit.reg.Register(applyLag)
		a.fol, err = replica.StartFollower(replica.FollowerConfig{
			Store: a.st, Primary: o.follow, Dir: o.dataDir,
			Logger:   kit.log.With("subsystem", "replica"),
			Tracer:   kit.tracer,
			ApplyLag: applyLag,
		})
		if err != nil {
			return fail(err)
		}
		cfg.Replica = a.fol

	case o.dataDir != "":
		var err error
		a.st, err = store.Open(o.dataDir, kit.storeOptions(store.Options{NoSync: o.noSync, CacheBytes: o.cacheBytes}))
		if err != nil {
			return fail(err)
		}
		cfg.Store = a.st
	}

	if o.replicateAddr != "" {
		// A follower can itself replicate onward (chained replicas): its
		// replayed commits land in its own WAL and log feed like any others.
		if a.st == nil {
			return fail(fmt.Errorf("-replicate-addr requires -data-dir (the WAL is what gets shipped)"))
		}
		var err error
		a.repl, err = replica.StartServer(replica.ServerConfig{
			Store: a.st, Addr: o.replicateAddr, AdvertiseHTTP: o.advertiseHTTP,
		})
		if err != nil {
			return fail(err)
		}
		cfg.Replication = a.repl
	}

	if shardModes == 0 {
		switch {
		case a.fol != nil:
			// server.New labels replica snapshots itself.
		case server.StoreHasData(a.st):
			// The durable contents win; -gen/-data would have been only the
			// seed.
			if o.gen || o.dataPath != "" {
				kit.log.Warn("store already populated; ignoring -gen/-data",
					"dir", o.dataDir, "objects", a.st.View().Dataset.Len())
			}
			a.source = fmt.Sprintf("store:%s", o.dataDir)
			cfg.Source = a.source
		default:
			ds, src, err := loadDataset(o.dataPath, o.gen, o.seed)
			if err != nil {
				return fail(err)
			}
			cfg.Dataset = ds
			a.source = src
			cfg.Source = a.source
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return fail(err)
	}
	a.srv = srv
	return a, nil
}

func loadDataset(path string, gen bool, seed int64) (*uncertain.Dataset, string, error) {
	switch {
	case gen && path != "":
		return nil, "", fmt.Errorf("-gen and -data are mutually exclusive")
	case gen:
		ds, err := uncertain.GenerateUniform(uncertain.LongBeachOptions(seed))
		return ds, fmt.Sprintf("gen:longbeach:seed=%d", seed), err
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		ds, err := uncertain.Read(f)
		if err != nil {
			return nil, "", err
		}
		if err := ds.Validate(); err != nil {
			return nil, "", err
		}
		return ds, path, nil
	default:
		return nil, "", fmt.Errorf("provide -data FILE, -gen, or a populated -data-dir")
	}
}
