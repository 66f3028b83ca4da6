/* The C kernel's interface with Python: every type, code and prototype
 * that both languages name, declared once.  kernel.c includes this file,
 * and cffi parses the same text as the extension's cdef, so it holds only
 * what cdef accepts: declarations, no preprocessor lines. */

typedef long long i64;

/* Why sim_run_until returned: the run is done up to the horizon, a
 * generic event (a = its Python object), a processor to wake (a), a route
 * Python must supply (a -> b, sim_set_route), a serving request crossed
 * into Python (a = proc, b = vid * 2 + kind). */
enum { R_DONE = 0, R_GENERIC = 1, R_RESUME = 2, R_NEED_ROUTE = 4, R_SREQ = 5 };

/* What the residency mirror did with one access (sim_access): completed
 * in place, pushed the flow that resumes the processor, or the strategy
 * must run it. */
enum { A_DONE = 0, A_FLOW = 1, A_CROSS = 2 };

/* The mirror's counters, in the order of the borrowed array
 * sim_mirror_init takes (MC_N of them; Python folds and zeroes them). */
enum { MC_HITS = 0, MC_WLOCAL, MC_MISSES, MC_WREMOTE, MC_CROSSED_R,
       MC_CROSSED_W, MC_FALLBACKS, MC_N };

/* Closed-form routing (sim_set_topology): none means Python feeds the
 * routes (R_NEED_ROUTE). */
enum { TOPO_NONE = 0, TOPO_MESH = 1, TOPO_TORUS = 2, TOPO_HYPERCUBE = 3 };

/* The native flow sim_mirror_init arms for read misses and remote
 * writes: none, the access tree's, the fixed-home directory's. */
enum { FLOW_NONE = 0, FLOW_TREE = 1, FLOW_DIRECTORY = 2 };

/* Where control returned to Python, and for what (sim_run_until). */
typedef struct { int kind; int a; int b; double time; } Crossing;

/* One serving request through its whole life: pending injection, queued
 * at its processor, crossed into Python, completion record.  kind: 0 =
 * read, 1 = write.  arrival is the requested simulated arrival (latency
 * zero point), eff the effective issue floor (clamped at injection,
 * exactly like the Python session's _inject), done the completion time,
 * wall the perf_counter() stamp taken at submission, id the accept index
 * (numbered at ingest), value what a write stores / what a read returned
 * (stamped at initiation).  The session reads the record array as a numpy
 * structured dtype (serve/session.py _REC, pinned field for field by
 * tests/serve/test_completions.py). */
typedef struct {
    int proc, vid, kind, pad;
    double arrival, eff, done, wall;
    i64 id, value;
} SReq;

/* What one pump produced, filled by sim_serve_drain. */
typedef struct {
    i64 n_rec, inflight, pending;
    const SReq *recs;
} ServeDrain;

typedef struct Sim Sim;

Sim *sim_new(int n_nodes, double hop, double local_ov, double cwire,
             double cover, double cocc, double *link_free, double *nic_free,
             int stage_cap);
void sim_free(Sim *s);
int *sim_stage_i(Sim *s);
int sim_ensure_stage(Sim *s, int n);
void sim_set_stats(Sim *s, double *bytes, i64 *msgs, i64 *startups,
                   i64 *receives, i64 *counts);
void sim_set_route(Sim *s, int src, int dst, int n);
void sim_clear_routes(Sim *s);
void sim_set_topology(Sim *s, int kind, int rows, int cols, int dim,
                      int cache);
int sim_compute_route(Sim *s, int src, int dst);
void sim_push_generic(Sim *s, double t, int obj);
void sim_push_resume(Sim *s, double t, int p);
void sim_push_flow(Sim *s, double t, int proc, int nh, int tbl, int n_kids,
                   double uw, double uo, double uocc, int udat,
                   double dw, double dov, double docc, int ddat);
int sim_run_until(Sim *s, Crossing *out, double horizon);
double sim_send_leg(Sim *s, double time, int src, int dst, double wire,
                    double over, double occ, int isdat);
double sim_probe_leg(Sim *s, double time, int src, int dst, double over,
                     double occ);
double sim_combine(Sim *s, int n, const int *host, const int *kid_off,
                   const int *kids, const int *leaf_proc,
                   const double *arrivals, double *times);
void sim_mirror_init(Sim *s, int nsites, int wl_rule, int nat_r, int nat_w,
                     int flow, i64 *counts, double *storage);
void sim_mirror_var(Sim *s, int vid, int owner, int top, int n_members,
                    int shape, double payload, double dw, double dov,
                    double docc);
int sim_mirror_export(Sim *s, int vid);
void sim_mirror_storage_delta(Sim *s, double delta, double t);
int sim_access(Sim *s, int p, int vid, int kind, double t);
void sim_serve_init(Sim *s, i64 max_inflight);
i64 sim_serve_ingest(Sim *s, i64 n, const int *procs, const int *vids,
                     const int *kinds, const double *arrivals,
                     const double *walls, const i64 *values);
int sim_serve_complete(Sim *s, Crossing *out, int p, double done);
void sim_serve_drain(Sim *s, ServeDrain *out);
