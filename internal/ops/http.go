package ops

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"vcdl/internal/boinc"
	"vcdl/internal/cloud"
)

// MaxPServers bounds POST /ops/ps. A resize appends the servers one by
// one under the pool's lock, so an unbounded n lets a single request
// allocate without limit. 64 is over ten times the largest pool the
// paper runs (P5).
const MaxPServers = 64

// Handler returns the admin API for this core, with every route under
// /ops/ so it mounts directly on the live server mux:
//
//	GET  /ops/clients                      rich per-client listing
//	GET  /ops/snapshot                     whole-deployment dump
//	POST /ops/clients/{id}/cordon          quarantine (no new work)
//	POST /ops/clients/{id}/uncordon        release quarantine
//	POST /ops/clients/{id}/drain           graceful departure
//	POST /ops/clients/{id}/kill            abrupt departure
//	POST /ops/clients/{id}/rejoin          revive a departed client
//	POST /ops/clients/{id}/slow?factor=F   straggler injection (1 restores)
//	POST /ops/clients/{id}/byzantine?behavior=B   adversarial toggle ("off" restores)
//	POST /ops/join?inst=I&region=R         add a client
//	POST /ops/policy?name=N[&arg=K]        hot-swap scheduler policy
//	POST /ops/ps?n=N                       resize the parameter-server pool (N ≤ MaxPServers)
//	POST /ops/tune?timeout=S&floor=F&preempt=P   any subset of knobs
//
// Mutations are POST-only; every applied action lands in
// vcdl_ops_actions_total via the shared core.
func (c *Core) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /ops/clients", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Clients())
	})
	mux.HandleFunc("GET /ops/snapshot", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Snapshot())
	})
	mux.HandleFunc("POST /ops/clients/{id}/{action}", c.handleClientAction)
	mux.HandleFunc("POST /ops/join", func(w http.ResponseWriter, r *http.Request) {
		inst, ok := cloud.InstanceByName(r.FormValue("inst"))
		if !ok {
			inst = cloud.ClientB
		}
		id, ok := c.AddClient(inst, cloud.Region(r.FormValue("region")))
		if !ok {
			httpError(w, http.StatusConflict, "this deployment cannot add clients (volunteers attach on their own)")
			return
		}
		writeJSON(w, map[string]string{"id": id})
	})
	mux.HandleFunc("POST /ops/policy", func(w http.ResponseWriter, r *http.Request) {
		name := r.FormValue("name") // implicit ParseForm
		p, err := boinc.NewPolicy(name, r.Form["arg"]...)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		c.SetPolicy(p)
		writeJSON(w, map[string]string{"policy": c.PolicyName()})
	})
	mux.HandleFunc("POST /ops/ps", func(w http.ResponseWriter, r *http.Request) {
		n, err := strconv.Atoi(r.FormValue("n"))
		if err != nil || n < 1 || n > MaxPServers {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("ps: want n=<1..%d>", MaxPServers))
			return
		}
		c.SetPServers(n)
		writeJSON(w, map[string]int{"pservers": c.PServers()})
	})
	mux.HandleFunc("POST /ops/tune", func(w http.ResponseWriter, r *http.Request) {
		applied := map[string]float64{}
		if v := r.FormValue("timeout"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f <= 0 {
				httpError(w, http.StatusBadRequest, "tune: timeout must be a positive number of seconds")
				return
			}
			c.SetTimeout(f)
			applied["timeout"] = f
		}
		if v := r.FormValue("floor"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 || f > 1 {
				httpError(w, http.StatusBadRequest, "tune: floor must be in [0,1]")
				return
			}
			c.SetReliabilityFloor(f)
			applied["floor"] = f
		}
		if v := r.FormValue("preempt"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 || f > 1 {
				httpError(w, http.StatusBadRequest, "tune: preempt must be in [0,1]")
				return
			}
			c.SetPreemptProb(f)
			applied["preempt"] = f
		}
		if len(applied) == 0 {
			httpError(w, http.StatusBadRequest, "tune: want at least one of timeout=, floor=, preempt=")
			return
		}
		writeJSON(w, applied)
	})
	return mux
}

func (c *Core) handleClientAction(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	action := r.PathValue("action")
	var ok bool
	switch action {
	case "cordon":
		ok = c.Cordon(id, true)
	case "uncordon":
		ok = c.Cordon(id, false)
	case "drain":
		ok = c.DetachClient(id)
	case "kill":
		ok = c.RemoveClient(id)
	case "rejoin":
		ok = c.RejoinClient(id)
	case "slow":
		factor, err := strconv.ParseFloat(r.FormValue("factor"), 64)
		if err != nil || factor <= 0 {
			httpError(w, http.StatusBadRequest, "slow: want factor=<positive number>")
			return
		}
		ok = c.SlowClient(id, factor)
	case "byzantine":
		behavior := r.FormValue("behavior")
		if _, ok := NormalizeByzantine(behavior); !ok {
			httpError(w, http.StatusBadRequest,
				fmt.Sprintf("byzantine: unknown behavior %q (want one of %v, or off)", behavior, boinc.ByzantineBehaviors))
			return
		}
		ok = c.SetByzantine(id, behavior)
	default:
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown action %q", action))
		return
	}
	if !ok {
		httpError(w, http.StatusConflict, fmt.Sprintf("%s %s: no such client, or action not applicable", action, id))
		return
	}
	writeJSON(w, map[string]string{"client": id, "action": action, "status": "ok"})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
