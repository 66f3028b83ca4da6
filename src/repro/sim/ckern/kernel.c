/* The compiled event loop of repro.sim.engine, mirrored operation for
 * operation from the pure-Python loop (same IEEE doubles, same order, the
 * same event keys (time, seq) at the same logical points), so simulated
 * results are bit-identical between the two engines.
 *
 * A flow (sim_push_flow: path up, invalidation multicast, path back down)
 * executes entirely in C; control returns to Python to wake a processor
 * (R_RESUME: a finished flow, or a timed wake-up pushed with
 * sim_push_resume) and for generic events (failure-schedule events only,
 * in a run).  Two more Python loops are one call each: a read or write
 * against the residency mirror (sim_access: a hit or local write
 * completes in place, a static family's miss or remote write is pushed as
 * its flow) and a tree barrier's combining pass (sim_combine, which also
 * wakes every processor at its release time).  The serving rings run a
 * session's requests on the same mirror.
 *
 * Routes of the shipped topologies are computed in closed form
 * (sim_set_topology + topo_route, link for link Topology.compute_route):
 * below the package's dense-node limit they are interned in the route
 * hash, above it recomputed per leg into a scratch buffer (O(1) route
 * memory).  Other topologies return R_NEED_ROUTE and Python supplies the
 * route (sim_set_route).
 *
 * What Python shares with this file is declared in abi.h;
 * repro/sim/_ckern.py builds the two into a cffi extension. */
#include <stdlib.h>
#include <string.h>

#include "abi.h"

/* event kinds of the heap (kernel-internal) */
enum { K_GEN = 0, K_CHAIN = 1, K_MDOWN = 2, K_MACK = 3,
       K_SREQ = 4, K_SDONE = 5, K_RESUME = 6 };

typedef struct { double time; i64 seq; int kind, a, b, c, d; } Ev;

/* cost shape of a message leg: wire bytes, NIC overhead per end, link
 * occupancy, data (1) or control (0) */
typedef struct { double wire, over, occ; int dat; } Shape;

typedef struct { int remaining; double tmax; int node; int parent_host; int parent; } Pend;

/* One protocol flow -- the only message pattern there is.  Legs run up
 * the host path path[0..nh) with cost shape up; from path[nh-1] a control
 * multicast with combining acks runs over the fanout tables (tbl nodes,
 * local id 0 the root, node i's kids at kids[kid_off[i]..+kid_cnt[i]);
 * tbl == 0: none); legs run back down the path with shape down; then
 * processor proc is resumed.  The tables are slices of the trailing
 * block, after the path. */
typedef struct {
    int id, proc, nh, tbl;
    Shape up, down;
    int *hosts, *kid_cnt, *kid_off, *kids;
    Pend *pends; int n_pend, cap_pend;
    int path[];
} Flow;

/* FIFO ring of requests (the pending queue and every processor's queue);
 * cap is a power of two. */
typedef struct { SReq *buf; int cap, head, len; } SRing;

/* Per-variable mirror state besides the membership bitset: owner (-1 =
 * home/main memory), member count and, for the flow mirrors, the
 * component top (tree) or the home processor (directory), payload bytes
 * and the data cost shape of that payload; value is the variable's value
 * cell (0 until a write is initiated). */
typedef struct {
    int owner, count, top, home;
    double payload;
    Shape data;
    i64 value;
} SVar;

struct Sim {
    int n_nodes;
    i64 seqno;
    double hop, local_ov;
    Shape ctrl;                   /* the one control-message cost shape */
    double *link_free, *nic_free;               /* borrowed (numpy) */
    /* borrowed: the bound LinkStats' five arrays (sim_set_stats);
       st_counts is {total, data, local} messages */
    double *st_bytes; i64 *st_msgs, *st_startups, *st_receives, *st_counts;
    Ev *heap; int heap_n, heap_cap;
    i64 *rt_keys; int *rt_off, *rt_len; int rt_cap, rt_count;
    int *arena; int ar_used, ar_cap;
    /* closed-form routing (sim_set_topology): a TOPO_* kind */
    int topo_kind, t_rows, t_cols, t_dim, t_nh, t_nv, t_mesh_links;
    int cache_routes;
    int *rt_scratch;
    Flow **flows; int fl_cap; int *fl_free; int fl_free_n;
    int *stage_i;
    int stage_cap;
    /* ---------------------------------------- serving rings (serve only) */
    int serve_on;                 /* armed by sim_serve_init */
    int sv_phase;                 /* 0 = inject next, 1 = running */
    double sv_now;                /* time of the last event popped */
    SRing *sv_q;                  /* per-proc request rings */
    SRing sv_pend;                /* admitted, awaiting injection */
    SReq *sv_cur;                 /* per-proc request crossed into Python */
    i64 sv_next_id;               /* id of the next ingested request */
    unsigned char *sv_state;      /* 0 idle, 1 timer pending, 2 crossed */
    i64 sv_inflight, sv_max_inflight, sv_round_n;
    SReq *sv_rec; i64 sv_rec_n, sv_rec_cap;  /* completions, drained per pump */
    /* ------------------------------- residency mirror (batch and serve) */
    int mirror_on;                /* armed by sim_mirror_init */
    i64 *mc;                      /* borrowed: the MC_* counters */
    /* per-vid membership bitset over "sites" (procs for the directory
       families, tree nodes for the access tree) */
    int sv_nsites, sv_words, sv_wl_rule;
    int sv_nat_r, sv_nat_w;       /* the family's native hit / local write flags */
    int *sv_site_of;              /* proc -> site (identity or leaf_of) */
    int sv_var_cap;
    unsigned long long *sv_bits;  /* sv_var_cap * sv_words */
    SVar *sv_var;                 /* per vid */
    /* flow mirror: read misses and writes compiled into the kernel (armed
       only when the strategy's flow shape is static -- no remap, no
       memory pressure -- so serving stays native).  sv_flow: a FLOW_*
       kind (the directory needs no shape beyond SVar.home; the tree
       fields below stay NULL) */
    int sv_flow;
    int *sv_parent, *sv_depth;    /* [nsites] static tree shape */
    int *sv_kid_off, *sv_kid;     /* children of node i: sv_kid[off[i]..off[i+1]) */
    int *sv_host;                 /* per vid: nsites-wide node->host row */
    int *sv_scr_a, *sv_scr_b, *sv_path;  /* LCA walk / component scratch */
    /* borrowed: the storage-cost accumulator {integral, last, excess},
       fed from C (flow mirrors) so the time integral stays ONE float
       accumulation sequence (bit-identical to the pure path) */
    double *sc;
};

/* ------------------------------------------------------------------ heap */
static void heap_push(Sim *s, double t, i64 seq, int kind, int a, int b,
                      int c, int d) {
    if (s->heap_n == s->heap_cap) {
        s->heap_cap *= 2;
        s->heap = (Ev *)realloc(s->heap, s->heap_cap * sizeof(Ev));
    }
    Ev *h = s->heap;
    int i = s->heap_n++;
    while (i > 0) {
        int p = (i - 1) >> 1;
        if (h[p].time < t || (h[p].time == t && h[p].seq < seq)) break;
        h[i] = h[p];
        i = p;
    }
    h[i].time = t; h[i].seq = seq; h[i].kind = kind;
    h[i].a = a; h[i].b = b; h[i].c = c; h[i].d = d;
}

static Ev heap_pop(Sim *s) {
    Ev *h = s->heap;
    Ev top = h[0];
    Ev last = h[--s->heap_n];
    int n = s->heap_n, i = 0;
    for (;;) {
        int l = 2 * i + 1, m = i;
        if (l < n && (h[l].time < last.time ||
                      (h[l].time == last.time && h[l].seq < last.seq)))
            m = l;
        int r = l + 1;
        if (r < n) {
            Ev *cm = (m == i) ? &last : &h[m];
            if (h[r].time < cm->time ||
                (h[r].time == cm->time && h[r].seq < cm->seq))
                m = r;
        }
        if (m == i) break;
        h[i] = h[m];
        i = m;
    }
    if (n > 0) h[i] = last;
    return top;
}

/* ---------------------------------------------------------------- routes */
static int rt_slot(Sim *s, i64 key) {
    int mask = s->rt_cap - 1;
    int i = (int)(((unsigned long long)key * 0x9E3779B97F4A7C15ULL) >> 33) & mask;
    while (s->rt_keys[i] != -1) {
        if (s->rt_keys[i] == key) return i;
        i = (i + 1) & mask;
    }
    return ~i;
}

static void rt_grow(Sim *s) {
    int old_cap = s->rt_cap;
    i64 *ok = s->rt_keys; int *oo = s->rt_off, *ol = s->rt_len;
    s->rt_cap *= 2;
    s->rt_keys = (i64 *)malloc(s->rt_cap * sizeof(i64));
    s->rt_off = (int *)malloc(s->rt_cap * sizeof(int));
    s->rt_len = (int *)malloc(s->rt_cap * sizeof(int));
    for (int i = 0; i < s->rt_cap; i++) s->rt_keys[i] = -1;
    for (int i = 0; i < old_cap; i++) {
        if (ok[i] == -1) continue;
        int j = ~rt_slot(s, ok[i]);
        s->rt_keys[j] = ok[i]; s->rt_off[j] = oo[i]; s->rt_len[j] = ol[i];
    }
    free(ok); free(oo); free(ol);
}

static int rt_store(Sim *s, i64 key, const int *links, int n) {
    /* insert one route; returns its arena offset (valid until next store) */
    if (s->rt_count * 10 >= s->rt_cap * 7) rt_grow(s);
    if (s->ar_used + n > s->ar_cap) {
        while (s->ar_used + n > s->ar_cap) s->ar_cap *= 2;
        s->arena = (int *)realloc(s->arena, s->ar_cap * sizeof(int));
    }
    memcpy(s->arena + s->ar_used, links, n * sizeof(int));
    int slot = rt_slot(s, key);
    if (slot < 0) {
        slot = ~slot;
        s->rt_count++;
    }
    s->rt_keys[slot] = key;
    s->rt_off[slot] = s->ar_used;
    s->rt_len[slot] = n;
    int off = s->ar_used;
    s->ar_used += n;
    return off;
}

void sim_set_route(Sim *s, int src, int dst, int n) {
    /* links staged in stage_i[0..n) */
    rt_store(s, (i64)src * s->n_nodes + dst, s->stage_i, n);
}

void sim_clear_routes(Sim *s) {
    /* Drop every interned route (failure epoch boundary: topology
       deltas invalidate routes; Python re-supplies them on demand). */
    for (int i = 0; i < s->rt_cap; i++) s->rt_keys[i] = -1;
    s->rt_count = 0;
    s->ar_used = 0;
}

/* ----------------------------------------------- closed-form routing */
void sim_set_topology(Sim *s, int kind, int rows, int cols, int dim,
                      int cache) {
    /* Enable algebraic next-hop computation (mirrors the Python
       compute_route of Mesh2D / Torus2D / Hypercube link for link).
       With cache=1 computed routes are also inserted into the route
       hash (small machines: compute each pair once); with cache=0 they
       are recomputed per leg into a scratch buffer (large machines:
       O(1) memory). */
    s->topo_kind = kind;
    s->t_rows = rows;
    s->t_cols = cols;
    s->t_dim = dim;
    s->t_nh = rows * (cols - 1);
    s->t_nv = (rows - 1) * cols;
    s->t_mesh_links = 2 * (s->t_nh + s->t_nv);
    s->cache_routes = cache;
    free(s->rt_scratch);
    /* diameter bounds: mesh R+C, torus R/2+C/2, hypercube dim */
    s->rt_scratch = (int *)malloc((rows + cols + dim + 4) * sizeof(int));
}

static int topo_route(Sim *s, int src, int dst, int *out) {
    /* Directed link ids of the deterministic path src -> dst; mirrors
       Topology.compute_route operation-for-operation. */
    int n = 0;
    if (s->topo_kind == TOPO_HYPERCUBE) {      /* e-cube */
        int D = s->t_dim;
        int diff = src ^ dst, cur = src;
        for (int d = 0; d < D; d++) {
            if (diff & (1 << d)) {
                out[n++] = cur * D + d;
                cur ^= 1 << d;
            }
        }
        return n;
    }
    int C = s->t_cols, R = s->t_rows;
    int nh = s->t_nh, nv = s->t_nv;
    int r1 = src / C, c1 = src % C, r2 = dst / C, c2 = dst % C;
    if (s->topo_kind == TOPO_MESH) {   /* dimension-order, x-first */
        if (c2 > c1)
            for (int c = c1; c < c2; c++) out[n++] = r1 * (C - 1) + c;
        else
            for (int c = c1; c > c2; c--) out[n++] = r1 * (C - 1) + (c - 1) + nh;
        if (r2 > r1)
            for (int r = r1; r < r2; r++) out[n++] = 2 * nh + r * C + c2;
        else
            for (int r = r1; r > r2; r--) out[n++] = 2 * nh + (r - 1) * C + c2 + nv;
        return n;
    }
    /* torus: shortest-wrap dimension-order (tie at half-ring: east/south) */
    int M = s->t_mesh_links;
    int dc = c2 - c1;
    if (dc < 0) dc += C;
    if (dc) {
        int east = dc <= C - dc;
        int dist = east ? dc : C - dc;
        int c = c1;
        for (int i = 0; i < dist; i++) {
            if (east) {
                out[n++] = (c < C - 1) ? r1 * (C - 1) + c : M + r1;
                if (++c == C) c = 0;
            } else {
                out[n++] = (c > 0) ? r1 * (C - 1) + (c - 1) + nh : M + R + r1;
                if (--c < 0) c = C - 1;
            }
        }
    }
    int dr = r2 - r1;
    if (dr < 0) dr += R;
    if (dr) {
        int south = dr <= R - dr;
        int dist = south ? dr : R - dr;
        int r = r1;
        for (int i = 0; i < dist; i++) {
            if (south) {
                out[n++] = (r < R - 1) ? 2 * nh + r * C + c2 : M + 2 * R + c2;
                if (++r == R) r = 0;
            } else {
                out[n++] = (r > 0) ? 2 * nh + (r - 1) * C + c2 + nv
                                   : M + 2 * R + C + c2;
                if (--r < 0) r = R - 1;
            }
        }
    }
    return n;
}

int sim_compute_route(Sim *s, int src, int dst) {
    /* Test/debug surface: route length, links into stage_i[0..n). */
    if (!s->topo_kind) return -1;
    int n = topo_route(s, src, dst, s->rt_scratch);
    memcpy(s->stage_i, s->rt_scratch, n * sizeof(int));
    return n;
}

/* --------------------------------------------------------------- one leg */
/* The links of src -> dst (src != dst) and their count; NULL: only Python
 * knows the route and must supply it (sim_set_route).  store: a computed
 * route may enter the route hash (a probe is side-effect-free: never). */
static const int *leg_route(Sim *s, int src, int dst, int store, int *len) {
    i64 key = (i64)src * s->n_nodes + dst;
    int slot = rt_slot(s, key);
    if (slot >= 0) {
        *len = s->rt_len[slot];
        return s->arena + s->rt_off[slot];
    }
    if (!s->topo_kind) return 0;
    *len = topo_route(s, src, dst, s->rt_scratch);
    if (!(store && s->cache_routes)) return s->rt_scratch;
    /* rt_store may realloc the arena: sequence the call before reading
       s->arena (a combined expression is free to load the old pointer
       first). */
    int off = rt_store(s, key, s->rt_scratch, *len);
    return s->arena + off;
}

/* The timing arithmetic of one remote leg: the one copy of what the
 * bit-identity contract is about (the pure loop's, operation for
 * operation).  Writes no resource state: returns the arrival, and hands
 * back when the sender's NIC (depart) and the links (end) come free. */
static inline double leg_timing(const Sim *s, double time, int src, int dst,
                                const int *links, int len, double over,
                                double occ, double *depart, double *end) {
    double t_send = s->nic_free[src];
    if (time > t_send) t_send = time;
    *depart = t_send + over;
    double start = *depart;
    for (int k = 0; k < len; k++) {
        double v = s->link_free[links[k]];
        if (v > start) start = v;
    }
    *end = start + occ;
    double arrive = *end + len * s->hop;
    double t_recv = s->nic_free[dst];
    if (arrive > t_recv) t_recv = arrive;
    return t_recv + over;
}

/* One counted leg: timing, resource state, traffic.  Returns the arrival,
 * or -1 (before any side effect) when Python must supply the route. */
static double do_leg(Sim *s, double time, int src, int dst, const Shape *sh) {
    int len = 0;
    double arrive = time + s->local_ov;
    if (src != dst) {
        const int *links = leg_route(s, src, dst, 1, &len);
        if (!links) return -1.0;
        double depart, end;
        arrive = leg_timing(s, time, src, dst, links, len, sh->over, sh->occ,
                            &depart, &end);
        s->nic_free[src] = depart;
        for (int k = 0; k < len; k++) {
            int lk = links[k];
            s->link_free[lk] = end;
            s->st_bytes[lk] += sh->wire;
            s->st_msgs[lk]++;
        }
        s->nic_free[dst] = arrive;
    }
    s->st_startups[src]++; s->st_receives[dst]++;
    s->st_counts[0]++;
    if (sh->dat) s->st_counts[1]++;
    /* Local, or a zero-link route (unreachable pair under failures): it
       crosses no link, and the pure engine's LinkStats counts it local. */
    if (len == 0) s->st_counts[2]++;
    return arrive;
}

/* side-effect-free timing of one leg (send_leg(count=False)); -1 => route
   needed */
double sim_probe_leg(Sim *s, double time, int src, int dst, double over,
                     double occ) {
    if (src == dst) return time + s->local_ov;
    int len;
    const int *links = leg_route(s, src, dst, 0, &len);
    if (!links) return -1.0;
    double depart, end;
    return leg_timing(s, time, src, dst, links, len, over, occ, &depart, &end);
}

/* counting leg driven from Python's send_leg(); -1 => route needed */
double sim_send_leg(Sim *s, double time, int src, int dst, double wire,
                    double over, double occ, int isdat) {
    Shape sh = {wire, over, occ, isdat};
    return do_leg(s, time, src, dst, &sh);
}

/* ------------------------------------------------------------------ flows */
static Flow *flow_new(Sim *s, int proc, int nh, int tbl, int n_kids,
                      Shape up, Shape down) {
    /* a flow whose path and fanout tables are left for the caller to fill */
    int id;
    if (s->fl_free_n) {
        id = s->fl_free[--s->fl_free_n];
    } else {
        id = s->fl_cap;
        s->fl_cap = s->fl_cap ? s->fl_cap * 2 : 64;
        s->flows = (Flow **)realloc(s->flows, s->fl_cap * sizeof(Flow *));
        s->fl_free = (int *)realloc(s->fl_free, s->fl_cap * sizeof(int));
        memset(s->flows + id, 0, (s->fl_cap - id) * sizeof(Flow *));
        for (int i = s->fl_cap - 1; i > id; i--) s->fl_free[s->fl_free_n++] = i;
    }
    Flow *f = (Flow *)malloc(sizeof(Flow) +
                             (nh + 3 * tbl + n_kids) * sizeof(int));
    f->id = id; f->proc = proc; f->nh = nh; f->tbl = tbl;
    f->up = up; f->down = down;
    f->hosts = f->path + nh;
    f->kid_cnt = f->hosts + tbl;
    f->kid_off = f->hosts + 2 * tbl;
    f->kids = f->hosts + 3 * tbl;
    f->pends = 0; f->n_pend = 0; f->cap_pend = 0;
    s->flows[id] = f;
    return f;
}

static int flow_new_pend(Flow *f, int remaining, double tmax, int node,
                         int parent_host, int parent) {
    if (f->n_pend == f->cap_pend) {
        f->cap_pend = f->cap_pend ? f->cap_pend * 2 : 8;
        f->pends = (Pend *)realloc(f->pends, f->cap_pend * sizeof(Pend));
    }
    Pend *p = &f->pends[f->n_pend];
    p->remaining = remaining; p->tmax = tmax; p->node = node;
    p->parent_host = parent_host; p->parent = parent;
    return f->n_pend++;
}

/* The one completion, at t: resume the flow's processor -- natively
 * (K_SDONE) when the serving rings are armed, else through Python's
 * resume hook (a batch run on the residency mirror included). */
static void flow_done(Sim *s, Flow *f, double t) {
    heap_push(s, t, s->seqno++, s->serve_on ? K_SDONE : K_RESUME, f->proc,
              0, 0, 0);
    s->flows[f->id] = 0;
    s->fl_free[s->fl_free_n++] = f->id;
    free(f->pends);
    free(f);
}

/* The answer leaves the far end of the path at t: back down, leg nh - 1
 * on; a one-host path has no legs. */
static void flow_reply(Sim *s, Flow *f, double t) {
    if (f->nh > 1)
        heap_push(s, t, s->seqno++, K_CHAIN, f->id, f->nh - 1, 0, 0);
    else
        flow_done(s, f, t);
}

/* The request reached the far end of the path at t: multicast over the
 * fanout (root pend = index 0), or, absent or childless, answer at once. */
static void flow_turn(Sim *s, Flow *f, double t) {
    int n = f->tbl ? f->kid_cnt[0] : 0;
    if (!n) {
        flow_reply(s, f, t);
        return;
    }
    flow_new_pend(f, n, t, 0, 0, -1);
    const int *kk = f->kids + f->kid_off[0];
    for (int j = 0; j < n; j++)
        heap_push(s, t, s->seqno++, K_MDOWN, f->id, kk[j], f->hosts[0], 0);
}

static void flow_push(Sim *s, Flow *f, double t) {
    /* start a filled flow at t */
    if (f->nh > 1)
        heap_push(s, t, s->seqno++, K_CHAIN, f->id, 0, 0, 0);
    else
        flow_turn(s, f, t);
}

void sim_push_flow(Sim *s, double t, int proc, int nh, int tbl, int n_kids,
                   double uw, double uo, double uocc, int udat,
                   double dw, double dov, double docc, int ddat) {
    /* stage_i layout: path[nh], then the fanout tables hosts[tbl],
       kid_cnt[tbl], kid_off[tbl], kids[n_kids] */
    Flow *f = flow_new(s, proc, nh, tbl, n_kids, (Shape){uw, uo, uocc, udat},
                       (Shape){dw, dov, docc, ddat});
    memcpy(f->path, s->stage_i, (nh + 3 * tbl + n_kids) * sizeof(int));
    flow_push(s, f, t);
}

/* --------------------------------------------------------- combining pass
 * A tree barrier's combining pass in one call: the arrivals climb the
 * combining tree, the release runs back down -- the legs the pure loop of
 * Simulator.combine sends, in the same order, so reservations and traffic
 * are bit-identical -- and each leaf's processor is woken (K_RESUME) at
 * its release time as the pre-order reaches it, consuming the seqnos the
 * pure loop's wake-ups consume.  The tree is dense and numbered in the
 * pass's pre-order (node 0 the root): host[i], children kids[kid_off[i] ..
 * kid_off[i + 1]), leaf_proc[i] the processor of a leaf (-1 inside).
 * times[n] is scratch.  Returns the latest release (the barrier's
 * boundary).  Every route must be closed-form (no failure view, a shipped
 * topology). */
double sim_combine(Sim *s, int n, const int *host, const int *kid_off,
                   const int *kids, const int *leaf_proc,
                   const double *arrivals, double *times) {
    for (int i = n - 1; i >= 0; i--) {
        if (leaf_proc[i] >= 0) {
            times[i] = arrivals[leaf_proc[i]];
            continue;
        }
        double t = 0.0;
        for (int j = kid_off[i]; j < kid_off[i + 1]; j++) {
            int c = kids[j];
            double a = do_leg(s, times[c], host[c], host[i], &s->ctrl);
            if (a > t) t = a;
        }
        times[i] = t;
    }
    double latest = 0.0;
    for (int i = 0; i < n; i++) {
        for (int j = kid_off[i]; j < kid_off[i + 1]; j++) {
            int c = kids[j];
            times[c] = do_leg(s, times[i], host[i], host[c], &s->ctrl);
        }
        if (leaf_proc[i] >= 0) {
            heap_push(s, times[i], s->seqno++, K_RESUME, leaf_proc[i], 0, 0, 0);
            if (times[i] > latest) latest = times[i];
        }
    }
    return latest;
}

/* ------------------------------------------------------- residency mirror
 *
 * Who holds a copy of each variable, mirrored from the strategy's
 * declaration (ResidencyMirror), so that an access whose outcome the
 * mirror can prove completes without calling the strategy: a hit or a
 * local write in place, and -- for a family whose flow shapes are static
 * -- a read miss or a remote write as the very flow the strategy would
 * launch, after the same state update, consuming the same seqnos.  The
 * runtime arms it for batch runs (sim_access from its request loop) and
 * for serving sessions (the rings below call the same code). */

void sim_mirror_init(Sim *s, int nsites, int wl_rule, int nat_r, int nat_w,
                     int flow, i64 *counts, double *storage) {
    /* flow (FLOW_*) arms the native read-miss and write flows.  Staged
       in stage_i: site_of[n_nodes], then (FLOW_TREE: the static tree shape)
       parent[nsites], depth[nsites], kid_off[nsites + 1] and the
       kid_off[nsites] child ids it indexes.  Borrowed: counts (the MC_*
       counters) and storage (the strategy's storage accumulator, fed from
       here because native flows place and drop copies). */
    int n = s->n_nodes;
    s->mirror_on = 1;
    s->mc = counts;
    s->sc = storage;
    s->sv_nsites = nsites;
    s->sv_words = (nsites + 63) >> 6;
    s->sv_wl_rule = wl_rule;
    s->sv_nat_r = nat_r;
    s->sv_nat_w = nat_w;
    s->sv_site_of = (int *)malloc(n * sizeof(int));
    memcpy(s->sv_site_of, s->stage_i, n * sizeof(int));
    s->sv_var_cap = 256;
    s->sv_bits = (unsigned long long *)calloc(
        (size_t)s->sv_var_cap * s->sv_words, sizeof(unsigned long long));
    s->sv_var = (SVar *)calloc(s->sv_var_cap, sizeof(SVar));
    s->sv_flow = flow;
    if (flow != FLOW_TREE) return;
    s->sv_parent = (int *)malloc(nsites * sizeof(int));
    s->sv_depth = (int *)malloc(nsites * sizeof(int));
    memcpy(s->sv_parent, s->stage_i + n, nsites * sizeof(int));
    memcpy(s->sv_depth, s->stage_i + n + nsites, nsites * sizeof(int));
    const int *kid_off = s->stage_i + n + 2 * nsites;
    int n_kids = kid_off[nsites];
    s->sv_kid_off = (int *)malloc((nsites + 1 + n_kids) * sizeof(int));
    memcpy(s->sv_kid_off, kid_off, (nsites + 1 + n_kids) * sizeof(int));
    s->sv_kid = s->sv_kid_off + nsites + 1;
    s->sv_scr_a = (int *)malloc(nsites * sizeof(int));
    s->sv_scr_b = (int *)malloc(nsites * sizeof(int));
    s->sv_path = (int *)malloc(2 * nsites * sizeof(int));
    s->sv_host = (int *)malloc((size_t)s->sv_var_cap * nsites * sizeof(int));
}

static void sv_grow_vars(Sim *s, int vid) {
    if (vid < s->sv_var_cap) return;
    int old = s->sv_var_cap;
    while (vid >= s->sv_var_cap) s->sv_var_cap *= 2;
    s->sv_bits = (unsigned long long *)realloc(
        s->sv_bits,
        (size_t)s->sv_var_cap * s->sv_words * sizeof(unsigned long long));
    memset(s->sv_bits + (size_t)old * s->sv_words, 0,
           (size_t)(s->sv_var_cap - old) * s->sv_words *
           sizeof(unsigned long long));
    s->sv_var = (SVar *)realloc(s->sv_var, s->sv_var_cap * sizeof(SVar));
    memset(s->sv_var + old, 0, (s->sv_var_cap - old) * sizeof(SVar));
    if (s->sv_flow == FLOW_TREE)
        s->sv_host = (int *)realloc(
            s->sv_host, (size_t)s->sv_var_cap * s->sv_nsites * sizeof(int));
}

void sim_mirror_var(Sim *s, int vid, int owner, int top, int n_members,
                    int shape, double payload, double dw, double dov,
                    double docc) {
    /* One variable's residency: the member sites staged in
       stage_i[0..n_members), the owner, and the component top the native
       miss walk starts from (tree mirrors only).  shape != 0 also sets
       the flow shape a native flow replays, staged after the members: the
       node->host row (nsites ints, tree) or the home processor (one int,
       directory), and the payload's data cost shape. */
    sv_grow_vars(s, vid);
    unsigned long long *w = s->sv_bits + (size_t)vid * s->sv_words;
    memset(w, 0, s->sv_words * sizeof(unsigned long long));
    for (int j = 0; j < n_members; j++) {
        int site = s->stage_i[j];
        w[site >> 6] |= 1ULL << (site & 63);
    }
    SVar *var = &s->sv_var[vid];
    var->owner = owner;
    var->count = n_members;
    var->top = top;
    if (!shape) return;
    const int *row = s->stage_i + n_members;
    if (s->sv_flow == FLOW_TREE)
        memcpy(s->sv_host + (size_t)vid * s->sv_nsites, row,
               s->sv_nsites * sizeof(int));
    else
        var->home = row[0];
    var->payload = payload;
    var->data = (Shape){dw, dov, docc, 1};
}

int sim_mirror_export(Sim *s, int vid) {
    /* the vid's residency as native flows left it: member sites into
       stage_i[0..n), the component top (directory flow: the owner) into
       stage_i[n]; returns n (Python adopts it before a crossing and when
       the run or session ends; arming sized stage_i past nsites + 1). */
    unsigned long long *w = s->sv_bits + (size_t)vid * s->sv_words;
    int n = 0;
    for (int wd = 0; wd < s->sv_words; wd++) {
        unsigned long long bits = w[wd];
        while (bits) {
            int b = __builtin_ctzll(bits);
            s->stage_i[n++] = wd * 64 + b;
            bits &= bits - 1;
        }
    }
    s->stage_i[n] = s->sv_flow == FLOW_DIRECTORY ? s->sv_var[vid].owner : s->sv_var[vid].top;
    return n;
}

void sim_mirror_storage_delta(Sim *s, double delta, double t) {
    /* exact mirror of DataManagementStrategy._storage_delta, on the
       borrowed {integral, last, excess} */
    double *sc = s->sc;
    if (t > sc[1]) {
        sc[0] += sc[2] * (t - sc[1]);
        sc[1] = t;
    }
    sc[2] += delta;
}

/* tree_path(leaf, top) cut at the first component member (inclusive):
 * the exact walk of decomposition.tree_path + AccessTree._request_path. */
static int sv_tree_path_cut(Sim *s, int a, int b,
                            const unsigned long long *w, int *out) {
    const int *parent = s->sv_parent, *depth = s->sv_depth;
    int *ua = s->sv_scr_a, *ub = s->sv_scr_b;
    int na = 0, nb = 0;
    ua[na++] = a; ub[nb++] = b;
    int x = a, y = b;
    while (depth[x] > depth[y]) { x = parent[x]; ua[na++] = x; }
    while (depth[y] > depth[x]) { y = parent[y]; ub[nb++] = y; }
    while (x != y) { x = parent[x]; y = parent[y]; ua[na++] = x; ub[nb++] = y; }
    nb--;  /* ub's last entry duplicates the LCA already in ua */
    int n = 0;
    for (int i = 0; i < na; i++) {
        int node = ua[i]; out[n++] = node;
        if (w[node >> 6] & (1ULL << (node & 63))) return n;
    }
    for (int i = nb - 1; i >= 0; i--) {
        int node = ub[i]; out[n++] = node;
        if (w[node >> 6] & (1ULL << (node & 63))) return n;
    }
    return -1;  /* no member on the path: invariant broken, cross out */
}

/* AccessTreeStrategy._add_copies: a copy on every node of path[0..np),
 * component side outward (count/top/storage updated in the same order). */
static void sv_add_copies(Sim *s, SVar *var, unsigned long long *w,
                          const int *path, int np, double t) {
    const int *depth = s->sv_depth;
    int top = var->top;
    for (int i = np - 1; i >= 0; i--) {
        int node = path[i];
        unsigned long long bit = 1ULL << (node & 63);
        if (!(w[node >> 6] & bit)) {
            w[node >> 6] |= bit;
            var->count++;
            sim_mirror_storage_delta(s, var->payload, t);
            if (depth[node] < depth[top]) top = node;
        }
    }
    var->top = top;
}

/* A native access-tree read miss by p at t: replay AccessTreeStrategy.read's
 * miss body without leaving C -- walk to the component, extend the copy
 * set down the path, and push the flow the Python path pushes (request
 * up, value down), consuming the same seqnos.  Returns 0 to fall back to
 * a Python crossing. */
static int tree_miss(Sim *s, int p, int vid, double t) {
    SVar *var = &s->sv_var[vid];
    unsigned long long *w = s->sv_bits + (size_t)vid * s->sv_words;
    int *path = s->sv_path;
    int np = sv_tree_path_cut(s, s->sv_site_of[p], var->top, w, path);
    if (np < 2) { s->mc[MC_FALLBACKS]++; return 0; }
    s->mc[MC_MISSES]++;
    sv_add_copies(s, var, w, path, np, t);
    const int *row = s->sv_host + (size_t)vid * s->sv_nsites;
    Flow *f = flow_new(s, p, np, 0, 0, s->ctrl, var->data);
    for (int i = 0; i < np; i++) f->path[i] = row[path[i]];
    flow_push(s, f, t);
    return 1;
}

/* A native access-tree write (not the local sole-copy one): replay
 * AccessTreeStrategy.write without leaving C.  Cut the leaf-to-top path
 * at the first member u; snapshot the component rooted at u into the
 * flow's fanout (local id 0 = u; each node's kids in write's order:
 * member parent first, then the tree's child order); collapse the copy
 * set to the path u..leaf; push the flow: the new value up to u, the
 * invalidations over the snapshot, the modified copy back down.  Returns
 * 0 to fall back to a Python crossing. */
static int tree_write(Sim *s, int p, int vid, double t) {
    SVar *var = &s->sv_var[vid];
    unsigned long long *w = s->sv_bits + (size_t)vid * s->sv_words;
    int *path = s->sv_path;
    int np = sv_tree_path_cut(s, s->sv_site_of[p], var->top, w, path);
    if (np < 1) { s->mc[MC_FALLBACKS]++; return 0; }
    s->mc[MC_WREMOTE]++;
    const int *row = s->sv_host + (size_t)vid * s->sv_nsites;
    int u = path[np - 1], tbl = var->count;
    Flow *f = flow_new(s, p, np, tbl, tbl - 1, var->data, var->data);
    for (int i = 0; i < np; i++) f->path[i] = row[path[i]];
    int *node = s->sv_scr_a, *from = s->sv_scr_b;  /* by local id */
    int n = 1, nk = 0;
    node[0] = u; from[0] = -1; f->hosts[0] = row[u];
    for (int i = 0; i < n; i++) {
        int x = node[i], frm = from[i];
        const int *kid = s->sv_kid + s->sv_kid_off[x];
        int nc = s->sv_kid_off[x + 1] - s->sv_kid_off[x];
        f->kid_off[i] = nk;
        for (int j = -1; j < nc; j++) {     /* j == -1: the parent */
            int k = j < 0 ? s->sv_parent[x] : kid[j];
            if (k < 0 || k == frm || !(w[k >> 6] & (1ULL << (k & 63))))
                continue;
            node[n] = k; from[n] = x; f->hosts[n] = row[k];
            f->kids[nk++] = n++;
        }
        f->kid_cnt[i] = nk - f->kid_off[i];
    }
    /* state update, atomic at initiation */
    sim_mirror_storage_delta(s, (double)(1 - var->count) * var->payload, t);
    memset(w, 0, s->sv_words * sizeof(unsigned long long));
    w[u >> 6] |= 1ULL << (u & 63);
    var->count = 1;
    var->top = u;
    sv_add_copies(s, var, w, path, np, t);
    flow_push(s, f, t);
    return 1;
}

/* A native fixed-home read miss: replay FixedHomeStrategy.read's miss
 * body (_read_miss_flow, replicate always) without leaving C -- the
 * round trip proc -> home [-> owner], control up, data down, after the
 * state update in the Python path's order. */
static int home_miss(Sim *s, int p, int vid, double t) {
    SVar *var = &s->sv_var[vid];
    unsigned long long *w = s->sv_bits + (size_t)vid * s->sv_words;
    int home = var->home, owner = var->owner;
    s->mc[MC_MISSES]++;
    if (owner >= 0) {
        /* the home fetches the value from the owner, which keeps a copy;
           ownership moves back to main memory */
        var->owner = -1;
        if (!(w[home >> 6] & (1ULL << (home & 63)))) {
            w[home >> 6] |= 1ULL << (home & 63);
            var->count++;
            sim_mirror_storage_delta(s, var->payload, t);
        }
    }
    /* The reader's copy.  REPLAYED QUIRK, not a fix: a reader that is the
       home (a remote processor owning) just got its copy above, and
       _read_miss_flow still accounts +payload for it here -- one new
       member, two deltas.  The pinned storage_cost fingerprints carry
       the double delta; see tests/serve/test_native_directory.py::
       test_the_home_reading_from_a_remote_owner_counts_its_copy_twice. */
    if (!(w[p >> 6] & (1ULL << (p & 63)))) {
        w[p >> 6] |= 1ULL << (p & 63);
        var->count++;
    }
    sim_mirror_storage_delta(s, var->payload, t);
    Flow *f = flow_new(s, p, owner >= 0 ? 3 : 2, 0, 0, s->ctrl, var->data);
    f->path[0] = p; f->path[1] = home;
    if (owner >= 0) f->path[2] = owner;
    flow_push(s, f, t);
    return 1;
}

/* A native fixed-home write by a non-owner: replay FixedHomeStrategy.write
 * without leaving C.  Snapshot sorted(copies - {writer}) into a star
 * fanout rooted at the home (local id 0; holder i is local id i + 1),
 * collapse the copy set to the writer, who becomes the owner, then push
 * the flow: request leg, invalidations + acks, grant leg.  All control
 * messages; proc == home and a holder at the home are local legs, still
 * legs; no holders: request -> grant with no K_MDOWN. */
static int home_write(Sim *s, int p, int vid, double t) {
    SVar *var = &s->sv_var[vid];
    unsigned long long *w = s->sv_bits + (size_t)vid * s->sv_words;
    s->mc[MC_WREMOTE]++;
    int k = var->count - (int)((w[p >> 6] >> (p & 63)) & 1);
    int tbl = k + 1;
    Flow *f = flow_new(s, p, 2, tbl, k, s->ctrl, s->ctrl);
    f->path[0] = p; f->path[1] = var->home;
    memset(f->kid_cnt, 0, 2 * tbl * sizeof(int));  /* kid_cnt and kid_off */
    f->hosts[0] = var->home;
    f->kid_cnt[0] = k;
    int n = 0;
    for (int wd = 0; wd < s->sv_words; wd++) {
        unsigned long long bits = w[wd];
        while (bits) {
            int q = wd * 64 + __builtin_ctzll(bits);
            bits &= bits - 1;
            if (q == p) continue;
            f->kids[n] = n + 1;
            f->hosts[++n] = q;
        }
    }
    /* state update, atomic at initiation */
    sim_mirror_storage_delta(s, (double)(1 - var->count) * var->payload, t);
    memset(w, 0, s->sv_words * sizeof(unsigned long long));
    w[p >> 6] |= 1ULL << (p & 63);
    var->count = 1;
    var->owner = p;
    flow_push(s, f, t);
    return 1;
}

/* One access to vid by p at t (kind 0 = read, 1 = write), counted.
 * A_DONE: the mirror proves the strategy call would only bump a counter
 * (a hit, a local write); A_FLOW: it proves a miss / a remote write and
 * the armed static flow replayed it (the flow resumes p); A_CROSS: the
 * strategy must run it -- the mirror may not say, or the native flow fell
 * back (no member on the walked path). */
static int mirror_access(Sim *s, int p, int vid, int kind, double t) {
    /* 1 = side-effect-free, 0 = a miss / remote write, -1 = may not say */
    int native = -1;
    const unsigned long long *w = s->sv_bits + (size_t)vid * s->sv_words;
    int site = s->sv_site_of[p];
    int held = (int)((w[site >> 6] >> (site & 63)) & 1);
    if (kind == 0) {
        if (s->sv_nat_r) {
            native = held;
            s->mc[MC_HITS] += native;
        }
    } else if (s->sv_nat_w) {
        native = s->sv_wl_rule ? (s->sv_var[vid].count == 1 && held)
                               : (s->sv_var[vid].owner == p);
        s->mc[MC_WLOCAL] += native;
    }
    if (native == 1) return A_DONE;
    if (native == 0 && s->sv_flow) {
        int pushed = s->sv_flow == FLOW_TREE
            ? (kind ? tree_write(s, p, vid, t) : tree_miss(s, p, vid, t))
            : (kind ? home_write(s, p, vid, t) : home_miss(s, p, vid, t));
        if (pushed) return A_FLOW;
    }
    s->mc[MC_CROSSED_R + kind]++;
    return A_CROSS;
}

int sim_access(Sim *s, int p, int vid, int kind, double t) {
    /* the batch runtime's request loop: one read / write, A_* result */
    return mirror_access(s, p, vid, kind, t);
}

/* ---------------------------------------------------------- serving rings
 *
 * The request path of the serving session.  serve/session.py keeps a
 * line-for-line Python twin of these rings (ServeSession._inject and
 * _resume, see that module's docstring) for where they cannot be armed:
 * same event keys (time, seq) at the same logical points, so a served
 * run is bit-identical between the two.  Needs the residency mirror
 * armed first.
 *
 *   this kernel                      the session's twin
 *   K_SREQ pushed at injection   ->  _inject: resume_at(eff, p) (parked proc)
 *   K_SREQ pushed at the head's  ->  _resume: resume_at(eff, p)
 *     arrival (waiting proc)
 *   K_SDONE (flow completion)    ->  the flow's K_RESUME, _resume in state 2
 *   sim_serve_complete           ->  read / write returned the issue time
 *   mirror_access A_DONE         ->  (every request calls the strategy)
 */

static void serve_record(Sim *s, const SReq *it, double done) {
    if (s->sv_rec_n == s->sv_rec_cap) {
        s->sv_rec_cap *= 2;
        s->sv_rec = (SReq *)realloc(s->sv_rec, s->sv_rec_cap * sizeof(SReq));
    }
    SReq *r = &s->sv_rec[s->sv_rec_n++];
    *r = *it;
    r->done = done;
    s->sv_inflight--;
}

static void ring_init(SRing *q, int cap) {
    q->buf = (SReq *)malloc(cap * sizeof(SReq));
    q->cap = cap; q->head = 0; q->len = 0;
}

static void ring_push(SRing *q, const SReq *it) {
    if (q->len == q->cap) {
        SReq *nb = (SReq *)malloc(2 * q->cap * sizeof(SReq));
        for (int j = 0; j < q->len; j++)
            nb[j] = q->buf[(q->head + j) & (q->cap - 1)];
        free(q->buf);
        q->buf = nb;
        q->cap *= 2;
        q->head = 0;
    }
    q->buf[(q->head + q->len) & (q->cap - 1)] = *it;
    q->len++;
}

/* Dispatch queued requests for processor p until one must wait (timer),
 * one crosses into Python (returns 1, crossing filled), or the queue is
 * empty.  Twinned by ServeSession._resume. */
static int serve_advance(Sim *s, int p, Crossing *out) {
    SRing *q = &s->sv_q[p];
    for (;;) {
        if (!q->len) {
            s->sv_state[p] = 0;      /* parked */
            return 0;
        }
        SReq *head = &q->buf[q->head];
        if (head->eff > s->sv_now) {
            /* idle until the arrival: a wake-up at it */
            heap_push(s, head->eff, s->seqno++, K_SREQ, p, 0, 0, 0);
            s->sv_state[p] = 1;
            return 0;
        }
        SReq cur = *head;
        q->head = (q->head + 1) & (q->cap - 1);
        q->len--;
        /* initiation: values follow it (the session's rings read /
           write the registry at this same point), not completion */
        if (cur.kind)
            s->sv_var[cur.vid].value = cur.value;
        else
            cur.value = s->sv_var[cur.vid].value;
        int r = mirror_access(s, p, cur.vid, cur.kind, s->sv_now);
        if (r == A_DONE) {
            /* zero simulated time, zero side effects: complete in place */
            serve_record(s, &cur, s->sv_now);
            continue;
        }
        s->sv_cur[p] = cur;
        s->sv_state[p] = 2;
        if (r == A_FLOW)
            /* this proc blocks until its K_SDONE, exactly like a crossed
               request */
            return 0;
        out->kind = R_SREQ;
        out->a = p;
        out->b = cur.vid * 2 + cur.kind;
        out->time = s->sv_now;
        return 1;
    }
}

/* One injection round: move pending requests whose arrival is within the
 * horizon into the per-proc queues while the in-flight window has room.
 * Twinned by ServeSession._inject (same admission order, same eff
 * clamp, same wake-up points). */
static i64 serve_inject(Sim *s, double horizon) {
    i64 n = 0;
    SRing *pend = &s->sv_pend;
    while (pend->len && s->sv_inflight < s->sv_max_inflight) {
        SReq *it = &pend->buf[pend->head];
        if (it->arrival > horizon) break;
        double eff = it->arrival < s->sv_now ? s->sv_now : it->arrival;
        it->eff = eff;
        int p = it->proc;
        ring_push(&s->sv_q[p], it);
        pend->head = (pend->head + 1) & (pend->cap - 1);
        pend->len--;
        if (s->sv_state[p] == 0) {
            /* parked processor: the wake-up, stamped at eff */
            heap_push(s, eff, s->seqno++, K_SREQ, p, 0, 0, 0);
            s->sv_state[p] = 1;
        }
        s->sv_inflight++;
        n++;
    }
    return n;
}

void sim_serve_init(Sim *s, i64 max_inflight) {
    /* the serving rings, over an armed residency mirror */
    int n = s->n_nodes;
    s->serve_on = 1;
    s->sv_max_inflight = max_inflight;
    s->sv_q = (SRing *)malloc(n * sizeof(SRing));
    for (int p = 0; p < n; p++) ring_init(&s->sv_q[p], 16);
    ring_init(&s->sv_pend, 1024);
    s->sv_cur = (SReq *)calloc(n, sizeof(SReq));
    s->sv_state = (unsigned char *)calloc(n, 1);
    s->sv_rec_cap = 4096;
    s->sv_rec = (SReq *)malloc(s->sv_rec_cap * sizeof(SReq));
}

i64 sim_serve_ingest(Sim *s, i64 n, const int *procs, const int *vids,
                     const int *kinds, const double *arrivals,
                     const double *walls, const i64 *values) {
    /* append n admitted requests to the pending ring (ONE call per
       queue drain: the batched-ingest half of the fast path), numbered
       in ingest order */
    SReq it = {0};
    for (i64 j = 0; j < n; j++) {
        it.proc = procs[j]; it.vid = vids[j]; it.kind = kinds[j];
        it.arrival = arrivals[j]; it.wall = walls[j];
        it.id = s->sv_next_id++; it.value = values[j];
        ring_push(&s->sv_pend, &it);
    }
    return s->sv_pend.len;
}

int sim_serve_complete(Sim *s, Crossing *out, int p, double done) {
    /* The crossed request of p completed in place at `done` (the
       strategy either completes at the issue time or launches a flow,
       whose K_SDONE records it): record it and keep dispatching; 1 = the
       next request crossed (out). */
    serve_record(s, &s->sv_cur[p], done);
    return serve_advance(s, p, out);
}

void sim_serve_drain(Sim *s, ServeDrain *out) {
    /* What the session folds after a pump: the completion records (valid
       until the next run) and the queue gauges.  Resets the records. */
    out->n_rec = s->sv_rec_n; out->recs = s->sv_rec;
    out->inflight = s->sv_inflight; out->pending = s->sv_pend.len;
    s->sv_rec_n = 0;
}

static void mirror_free(Sim *s) {
    if (s->serve_on) {
        for (int p = 0; p < s->n_nodes; p++) free(s->sv_q[p].buf);
        free(s->sv_q); free(s->sv_cur); free(s->sv_state);
        free(s->sv_pend.buf); free(s->sv_rec);
    }
    /* NULL (calloc'ed Sim) where the mirror or its tree is not armed */
    free(s->sv_site_of); free(s->sv_bits); free(s->sv_var);
    free(s->sv_parent); free(s->sv_depth); free(s->sv_kid_off);
    free(s->sv_host);
    free(s->sv_scr_a); free(s->sv_scr_b); free(s->sv_path);
}

/* ------------------------------------------------------------------ loop */
void sim_push_generic(Sim *s, double t, int obj) {
    heap_push(s, t, s->seqno++, K_GEN, obj, 0, 0, 0);
}

void sim_push_resume(Sim *s, double t, int p) {
    /* wake processor p at t: the completion a finished flow pushes */
    heap_push(s, t, s->seqno++, K_RESUME, p, 0, 0, 0);
}

void sim_set_stats(Sim *s, double *bytes, i64 *msgs, i64 *startups,
                   i64 *receives, i64 *counts) {
    s->st_bytes = bytes; s->st_msgs = msgs;
    s->st_startups = startups; s->st_receives = receives;
    s->st_counts = counts;
}

int sim_run_until(Sim *s, Crossing *out, double horizon) {
  for (;;) {
    /* Serving mode interleaves injection rounds with event processing,
       exactly like the session rings' do {inject; run} while (n) loop.
       A crossing mid-round leaves sv_phase == 1 so re-entry resumes the
       event loop without double-injecting; R_DONE always leaves it 0,
       so every pump starts with an injection round. */
    if (s->serve_on && s->sv_phase == 0) {
        s->sv_round_n = serve_inject(s, horizon);
        s->sv_phase = 1;
    }
    while (s->heap_n) {
        if (s->heap[0].time > horizon) break;
        Ev ev = heap_pop(s);
        s->sv_now = ev.time;
        if (ev.kind >= K_CHAIN && ev.kind <= K_MACK) {
            /* one leg of a flow: up or down its path (K_CHAIN leg b), an
               invalidation into node b from host c, or b's combined ack
               back to host c (d: the pend it reports to) */
            Flow *f = s->flows[ev.a];
            const Shape *sh = &s->ctrl;
            int src, dst;
            if (ev.kind == K_CHAIN) {
                int up = ev.b < f->nh - 1;
                int j = up ? ev.b : 2 * (f->nh - 1) - ev.b;
                src = f->path[j]; dst = f->path[up ? j + 1 : j - 1];
                sh = up ? &f->up : &f->down;
            } else if (ev.kind == K_MDOWN) {
                src = ev.c; dst = f->hosts[ev.b];
            } else {
                src = f->hosts[ev.b]; dst = ev.c;
            }
            double arrive = do_leg(s, ev.time, src, dst, sh);
            if (arrive < 0.0) {
                out->kind = R_NEED_ROUTE;
                out->a = src; out->b = dst;
                heap_push(s, ev.time, ev.seq, ev.kind, ev.a, ev.b, ev.c, ev.d);
                return R_NEED_ROUTE;
            }
            if (ev.kind == K_CHAIN) {
                int i = ev.b + 1;
                if (i == f->nh - 1)
                    flow_turn(s, f, arrive);
                else if (i == 2 * (f->nh - 1))
                    flow_done(s, f, arrive);
                else
                    heap_push(s, arrive, s->seqno++, K_CHAIN, ev.a, i, 0, 0);
            } else if (ev.kind == K_MDOWN) {
                int cnt = f->kid_cnt[ev.b];
                if (cnt) {
                    int np = flow_new_pend(f, cnt, arrive, ev.b, ev.c, ev.d);
                    const int *kk = f->kids + f->kid_off[ev.b];
                    for (int j = 0; j < cnt; j++)
                        heap_push(s, arrive, s->seqno++, K_MDOWN, ev.a, kk[j],
                                  dst, np);
                } else {
                    heap_push(s, arrive, s->seqno++, K_MACK, ev.a, ev.b, ev.c,
                              ev.d);
                }
            } else {
                Pend *p = &f->pends[ev.d];
                p->remaining--;
                if (arrive > p->tmax) p->tmax = arrive;
                if (p->remaining == 0) {
                    if (p->parent < 0)
                        flow_reply(s, f, p->tmax);   /* the root: all acked */
                    else
                        heap_push(s, p->tmax, s->seqno++, K_MACK, ev.a,
                                  p->node, p->parent_host, p->parent);
                }
            }
            continue;
        }
        if (ev.kind == K_SREQ) {
            /* a parked or waiting processor's wake-up fired */
            if (serve_advance(s, ev.a, out)) return R_SREQ;
            continue;
        }
        if (ev.kind == K_SDONE) {
            /* the request's flow is done */
            serve_record(s, &s->sv_cur[ev.a], ev.time);
            if (serve_advance(s, ev.a, out)) return R_SREQ;
            continue;
        }
        /* K_GEN: a = the Python event; K_RESUME: a = the processor */
        out->kind = ev.kind == K_RESUME ? R_RESUME : R_GENERIC;
        out->a = ev.a;
        out->time = ev.time;
        return out->kind;
    }
    if (s->serve_on) {
        s->sv_phase = 0;
        if (s->sv_round_n) continue;   /* completions freed window room */
    }
    out->time = s->sv_now;   /* the last event popped: the clamp clock */
    return R_DONE;
  }
}

/* ----------------------------------------------------------- lifecycle */
Sim *sim_new(int n_nodes, double hop, double local_ov, double cwire,
             double cover, double cocc, double *link_free, double *nic_free,
             int stage_cap) {
    Sim *s = (Sim *)calloc(1, sizeof(Sim));
    s->n_nodes = n_nodes;
    s->hop = hop;
    s->local_ov = local_ov;
    s->ctrl = (Shape){cwire, cover, cocc, 0};
    s->link_free = link_free;
    s->nic_free = nic_free;
    s->heap_cap = 256;
    s->heap = (Ev *)malloc(s->heap_cap * sizeof(Ev));
    s->rt_cap = 1024;
    s->rt_keys = (i64 *)malloc(s->rt_cap * sizeof(i64));
    for (int i = 0; i < s->rt_cap; i++) s->rt_keys[i] = -1;
    s->rt_off = (int *)malloc(s->rt_cap * sizeof(int));
    s->rt_len = (int *)malloc(s->rt_cap * sizeof(int));
    s->ar_cap = 4096;
    s->arena = (int *)malloc(s->ar_cap * sizeof(int));
    s->stage_i = (int *)malloc(stage_cap * sizeof(int));
    s->stage_cap = stage_cap;
    return s;
}

int sim_ensure_stage(Sim *s, int n) {
    /* Grow the staging buffer to hold >= n entries; returns the new
       capacity (callers re-fetch the buffer pointer after growth). */
    if (n > s->stage_cap) {
        while (s->stage_cap < n) s->stage_cap *= 2;
        s->stage_i = (int *)realloc(s->stage_i, s->stage_cap * sizeof(int));
    }
    return s->stage_cap;
}

int *sim_stage_i(Sim *s) { return s->stage_i; }

void sim_free(Sim *s) {
    for (int i = 0; i < s->fl_cap; i++) {
        if (s->flows[i]) {
            free(s->flows[i]->pends);
            free(s->flows[i]);
        }
    }
    free(s->flows); free(s->fl_free);
    free(s->heap); free(s->rt_keys); free(s->rt_off); free(s->rt_len);
    free(s->arena); free(s->rt_scratch); free(s->stage_i);
    mirror_free(s);
    free(s);
}
