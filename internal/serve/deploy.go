package serve

import (
	"fmt"
	"net"
	"net/http"
	"sync"

	"repro/internal/obs"
)

// DeployConfig parameterizes an in-process deployment.
type DeployConfig struct {
	// Replicas is how many interchangeable query servers to start (>= 1).
	Replicas int
	// OpenBackend builds each replica's backend — its own store handle, so
	// replicas do not share read state.
	OpenBackend func() (*Backend, error)
	// CacheEntries bounds each replica's hot-pair cache (0 = off).
	CacheEntries int
	// MaxInFlight bounds each replica's concurrently executing queries
	// (0 = unlimited).
	MaxInFlight int
	// Registry, when set, is shared by every replica — one pane of glass
	// for a drill. By default each replica gets its own registry (in
	// Deployment.Registries), which per-replica assertions rely on.
	Registry *obs.Registry
}

// Deployment is a set of replicas running in one process on loopback
// listeners — the harness behind the failover tests, the chaos drill and
// the benchmark. The production layout (one daemon per process, ops mux)
// wires the same pieces; this just does it compactly.
type Deployment struct {
	// Names lists the replicas' base URLs in start order: the static
	// replica list a Client fails over across. Fixed once StartDeployment
	// returns.
	Names []string
	// Registries holds each replica's metric registry, keyed by name.
	Registries map[string]*obs.Registry
	// VS reports the first live replica as View().Primary. It exists only
	// because bench/serve.go reads d.VS.View(); drop it with the next
	// benchmark change.
	VS firstLive

	mu       sync.Mutex
	replicas map[string]*http.Server // running replicas by name
}

// StartDeployment starts cfg.Replicas replicas. Each serves as soon as its
// listener is up: there is no protocol to settle.
func StartDeployment(cfg DeployConfig) (*Deployment, error) {
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("serve: deployment needs at least one replica")
	}
	d := &Deployment{
		Registries: make(map[string]*obs.Registry),
		replicas:   make(map[string]*http.Server),
	}
	d.VS = firstLive{d}
	for i := 0; i < cfg.Replicas; i++ {
		if err := d.start(cfg); err != nil {
			d.Close()
			return nil, err
		}
	}
	return d, nil
}

func (d *Deployment) start(cfg DeployConfig) error {
	be, err := cfg.OpenBackend()
	if err != nil {
		return err
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	name := "http://" + ln.Addr().String()
	r := NewReplica(ReplicaOptions{
		Name:         name,
		Backend:      be,
		CacheEntries: cfg.CacheEntries,
		MaxInFlight:  cfg.MaxInFlight,
		Registry:     reg,
	})
	mux := http.NewServeMux()
	for pattern, h := range r.Handlers() {
		mux.Handle(pattern, h)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	d.mu.Lock()
	d.Names = append(d.Names, name)
	d.replicas[name] = srv
	d.Registries[name] = reg
	d.mu.Unlock()
	return nil
}

// Kill stops one replica abruptly, like a process kill: its listener and
// open connections close at once. Returns false if the name is not
// running.
func (d *Deployment) Kill(name string) bool {
	d.mu.Lock()
	srv, ok := d.replicas[name]
	delete(d.replicas, name)
	d.mu.Unlock()
	if ok {
		srv.Close()
	}
	return ok
}

// Close tears the deployment down.
func (d *Deployment) Close() {
	for _, name := range d.Names {
		d.Kill(name)
	}
}

// View names the replica a caller should try first.
type View struct{ Primary string }

// firstLive is the type of Deployment.VS.
type firstLive struct{ d *Deployment }

// View returns the first live replica in start order; ok is false when
// every replica has been killed.
func (f firstLive) View() (v View, ok bool) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	for _, name := range f.d.Names {
		if f.d.replicas[name] != nil {
			return View{Primary: name}, true
		}
	}
	return View{}, false
}
