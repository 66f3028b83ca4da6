"""Optional compiled event-loop kernel (cffi + cc), with pure-Python fallback.

The discrete-event hot loop -- heap, chain/multicast flow stepping, leg
timing, traffic accounting -- is a few hundred machine-level operations
per message leg, but costs ~1.2 microseconds in CPython even after the
inline-event overhaul.  This module compiles the identical loop to native
code at first use and drives it through ``cffi``'s ABI mode: chains and
multicasts execute entirely in C, and control returns to Python only for
generic events (program steps, barriers, locks) and flow completions.

Arithmetic is mirrored operation-for-operation from the pure-Python loop
in :mod:`repro.sim.engine` (same IEEE doubles, same order), and event keys
``(time, seq)`` are assigned at the same logical points, so simulated
results are bit-identical between the two engines --
``tests/sim/test_engine.py`` pins that equivalence.

Routing is mirrored the same way: for the shipped topologies the kernel
computes dimension-order / e-cube routes in closed form (``sim_set_topology``
+ ``topo_route``, link-for-link identical to ``Topology.compute_route``),
so the hot loop never re-enters Python for a route.  Below the package's
dense-node limit computed routes are also inserted into the kernel's route
hash (each pair computed once); above it they are recomputed per leg into
a scratch buffer -- O(1) route memory at any machine size.  Custom
topology classes fall back to the historical supply path: the kernel
returns ``R_NEED_ROUTE`` and Python feeds the route via ``sim_set_route``.

Gating: the kernel engages only when ``cffi`` is importable, a C compiler
is available, and ``REPRO_PURE_PYTHON`` is unset.  Any failure along the
way (no compiler, sandboxed tmpdir, dlopen error) silently falls back to
the pure-Python engine; nothing in the package *requires* the kernel.
The shared object is cached under ``$REPRO_CKERN_DIR`` (default: a
per-user directory in the system tempdir) keyed by a hash of the C
source, so compilation happens once per source revision.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile

__all__ = ["load_kernel", "CKERN_SOURCE"]

CKERN_SOURCE = r"""
#include <stdlib.h>
#include <string.h>

typedef long long i64;

enum { K_GEN = 0, K_CHAIN = 1, K_MDOWN = 2, K_MACK = 3,
       K_SREQ = 4, K_SDONE = 5 };
enum { R_DONE = 0, R_GENERIC = 1, R_CHAIN_DONE = 2, R_MC_DONE = 3,
       R_NEED_ROUTE = 4, R_SREQ = 5 };

typedef struct { double time; i64 seq; int kind, a, b, c, d; } Ev;
typedef struct { int kind; int a; int b; double time; double targ; } Crossing;

typedef struct { int src, dst, dat; double wire, over, occ; } Leg;
typedef struct { int n, done_id, auto_resume; Leg legs[]; } Chain;

typedef struct { int remaining; double tmax; int node; int parent_host; int parent; } Pend;

/* ------------------------------------------------------- serving fast path
 * One request through its whole life: pending injection, queued at its
 * processor, crossed into Python, completion record.  kind: 0 = read,
 * 1 = write.  arrival is the requested simulated arrival (latency zero
 * point), eff the effective issue floor (clamped at injection, exactly
 * like the Python session's _inject), done the completion time, wall the
 * perf_counter() stamp taken at submission.  The session reads the record
 * array as a numpy structured dtype (serve/session.py _REC), so the
 * layout is ABI. */
typedef struct { int proc, vid, kind, pad; double arrival, eff, done, wall; } SReq;

/* FIFO ring of requests (the pending queue and every processor's queue);
 * cap is a power of two. */
typedef struct { SReq *buf; int cap, head, len; } SRing;

/* Per-variable mirror state besides the membership bitset: owner (-1 =
 * home/main memory), member count and, for the flow mirrors, the
 * component top (tree) or the home processor (directory), payload bytes
 * and the 6 up/down leg costs. */
typedef struct { int owner, count, top, home; double payload, cost[6]; } SVar;

/* What one pump produced, filled by sim_serve_drain. */
typedef struct {
    i64 n_rec, inflight, pending, hits, wlocal, misses, wremote;
    i64 crossed_r, crossed_w, fallbacks;
    double sc_integral, sc_last, sc_excess;
    const SReq *recs;
} ServeDrain;

typedef struct {
    int done_id;
    double dwire, dover, docc; int ddat;
    double awire, aover, aocc;
    int *hosts, *kid_cnt, *kid_off, *kids;  /* slices of one block (hosts) */
    Pend *pends; int n_pend, cap_pend;
    /* native write (serve_tree_write, serve_home_write): wr_nh > 0 makes
       done_id the writer's processor and the completion native -- the
       reply chain back down wr_hosts[0..wr_nh) (a slice of the hosts
       block; rdat: the modified copy, or a control grant), or, for a
       writer already at the root (wr_nh == 1), its K_SDONE */
    int wr_nh; int *wr_hosts;
    double rwire, rover, rocc; int rdat;
} Mcast;

typedef struct {
    int n_nodes;
    i64 seqno;
    double hop, local_ov;
    double *link_free, *nic_free;               /* borrowed (numpy) */
    double *st_bytes; i64 *st_msgs, *st_startups, *st_receives;  /* borrowed */
    i64 st_total, st_data, st_local;
    Ev *heap; int heap_n, heap_cap;
    i64 *rt_keys; int *rt_off, *rt_len; int rt_cap, rt_count;
    int *arena; int ar_used, ar_cap;
    /* closed-form routing (sim_set_topology): 0 = none (routes are fed
       from Python), 1 = mesh, 2 = torus, 3 = hypercube */
    int topo_kind, t_rows, t_cols, t_dim, t_nh, t_nv, t_mesh_links;
    int cache_routes;
    int *rt_scratch;
    Chain **chains; int ch_cap; int *ch_free; int ch_free_n;
    Mcast **mcs; int mc_cap; int *mc_free; int mc_free_n;
    int *stage_i;
    double *stage_d;
    int stage_cap;
    /* ------------------------------------------------- serving fast path */
    int serve_on;                 /* armed by sim_serve_init */
    int sv_phase;                 /* 0 = inject next, 1 = running */
    double sv_now;                /* time of the last event popped */
    SRing *sv_q;                  /* per-proc request rings */
    SRing sv_pend;                /* admitted, awaiting injection */
    SReq *sv_cur;                 /* per-proc request crossed into Python */
    unsigned char *sv_state;      /* 0 idle, 1 timer pending, 2 crossed */
    i64 sv_inflight, sv_max_inflight, sv_round_n;
    i64 sv_hits, sv_wlocal;       /* native counter deltas (folded by Python) */
    i64 sv_crossed[2];            /* R_SREQ crossings, by request kind */
    SReq *sv_rec; i64 sv_rec_n, sv_rec_cap;  /* completions, drained per pump */
    /* residency mirror: per-vid membership bitset over "sites" (procs for
       the directory families, tree nodes for the access tree) */
    int sv_nsites, sv_words, sv_wl_rule;
    int sv_nat_r, sv_nat_w;       /* the family's native hit / local write flags */
    int *sv_site_of;              /* proc -> site (identity or leaf_of) */
    int sv_var_cap;
    unsigned long long *sv_bits;  /* sv_var_cap * sv_words */
    SVar *sv_var;                 /* per vid */
    /* flow mirror: read misses and writes compiled into the kernel (armed
       only when the strategy's flow shape is static -- no remap, no
       memory pressure -- so serving stays native).  sv_flow: 0 = none,
       1 = access tree, 2 = fixed-home directory (needs no shape beyond
       SVar.home; the tree fields below stay NULL) */
    int sv_flow;
    int *sv_parent, *sv_depth;    /* [nsites] static tree shape */
    int *sv_kid_off, *sv_kid;     /* children of node i: sv_kid[off[i]..off[i+1]) */
    int *sv_host;                 /* per vid: nsites-wide node->host row */
    int *sv_scr_a, *sv_scr_b, *sv_path;  /* LCA walk / component scratch */
    i64 sv_misses, sv_wremote;    /* native flow deltas (folded by Python) */
    i64 sv_fallbacks;             /* native flows that crossed out instead */
    /* storage-cost accumulator, moved into C (flow mirrors) so the time
       integral stays ONE float accumulation sequence (bit-identical to
       the pure path) */
    double sc_integral, sc_last, sc_excess;
} Sim;

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
    if (s->topo_kind == 3) {            /* hypercube: e-cube */
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
    if (s->topo_kind == 1) {            /* mesh: dimension-order, x-first */
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
    /* Test/debug surface: route length, links in sim_route_scratch(). */
    if (!s->topo_kind) return -1;
    return topo_route(s, src, dst, s->rt_scratch);
}

int *sim_route_scratch(Sim *s) { return s->rt_scratch; }

/* --------------------------------------------------------------- one leg */
static double do_leg(Sim *s, double time, int src, int dst, double wire,
                     double over, double occ, int isdat, int *need) {
    if (src == dst) {
        s->st_startups[src]++; s->st_receives[dst]++;
        s->st_total++; s->st_local++;
        if (isdat) s->st_data++;
        return time + s->local_ov;
    }
    i64 key = (i64)src * s->n_nodes + dst;
    int slot = rt_slot(s, key);
    int len;
    int *links;
    if (slot >= 0) {
        len = s->rt_len[slot];
        links = s->arena + s->rt_off[slot];
    } else if (s->topo_kind) {
        len = topo_route(s, src, dst, s->rt_scratch);
        if (s->cache_routes) {
            /* rt_store may realloc the arena: sequence the call before
               reading s->arena (a combined expression is free to load
               the old pointer first). */
            int off = rt_store(s, key, s->rt_scratch, len);
            links = s->arena + off;
        } else {
            links = s->rt_scratch;
        }
    } else {
        *need = 1;
        return 0.0;
    }
    double t_send = s->nic_free[src];
    if (time > t_send) t_send = time;
    double depart = t_send + over;
    double start = depart;
    for (int k = 0; k < len; k++) {
        double v = s->link_free[links[k]];
        if (v > start) start = v;
    }
    double end = start + occ;
    double arrive = end + len * s->hop;
    double t_recv = s->nic_free[dst];
    if (arrive > t_recv) t_recv = arrive;
    arrive = t_recv + over;
    s->nic_free[src] = depart;
    for (int k = 0; k < len; k++) {
        int lk = links[k];
        s->link_free[lk] = end;
        s->st_bytes[lk] += wire;
        s->st_msgs[lk]++;
    }
    s->nic_free[dst] = arrive;
    s->st_startups[src]++; s->st_receives[dst]++;
    s->st_total++;
    /* A zero-link route (unreachable pair under failures) crosses no
       link; the pure engine's LinkStats counts such legs as local. */
    if (len == 0) s->st_local++;
    if (isdat) s->st_data++;
    return arrive;
}

/* side-effect-free timing of one leg (send_leg(count=False)) */
double sim_probe_leg(Sim *s, double time, int src, int dst, double wire,
                     double over, double occ) {
    if (src == dst) return time + s->local_ov;
    int slot = rt_slot(s, (i64)src * s->n_nodes + dst);
    int len;
    const int *links;
    if (slot >= 0) {
        len = s->rt_len[slot];
        links = s->arena + s->rt_off[slot];
    } else if (s->topo_kind) {
        /* probes are side-effect-free: compute into scratch, don't cache */
        len = topo_route(s, src, dst, s->rt_scratch);
        links = s->rt_scratch;
    } else {
        return -1.0; /* caller must set the route and retry */
    }
    double t_send = s->nic_free[src];
    if (time > t_send) t_send = time;
    double depart = t_send + over;
    double start = depart;
    for (int k = 0; k < len; k++) {
        double v = s->link_free[links[k]];
        if (v > start) start = v;
    }
    double end = start + occ;
    double arrive = end + len * s->hop;
    double t_recv = s->nic_free[dst];
    if (arrive > t_recv) t_recv = arrive;
    return t_recv + over;
}

/* counting leg driven from Python's send_leg(); -1 => route needed */
double sim_send_leg(Sim *s, double time, int src, int dst, double wire,
                    double over, double occ, int isdat) {
    if (src != dst && !s->topo_kind) {
        int slot = rt_slot(s, (i64)src * s->n_nodes + dst);
        if (slot < 0) return -1.0;
    }
    int need = 0;
    return do_leg(s, time, src, dst, wire, over, occ, isdat, &need);
}

/* --------------------------------------------------------------- chains */
static int chain_alloc(Sim *s, int n, int done_id, int auto_resume) {
    int id;
    if (s->ch_free_n) {
        id = s->ch_free[--s->ch_free_n];
    } else {
        id = s->ch_cap;
        s->ch_cap = s->ch_cap ? s->ch_cap * 2 : 64;
        s->chains = (Chain **)realloc(s->chains, s->ch_cap * sizeof(Chain *));
        s->ch_free = (int *)realloc(s->ch_free, s->ch_cap * sizeof(int));
        memset(s->chains + id, 0, (s->ch_cap - id) * sizeof(Chain *));
        for (int i = s->ch_cap - 1; i > id; i--) s->ch_free[s->ch_free_n++] = i;
    }
    Chain *ch = (Chain *)malloc(sizeof(Chain) + n * sizeof(Leg));
    ch->n = n;
    ch->done_id = done_id;
    ch->auto_resume = auto_resume;
    s->chains[id] = ch;
    return id;
}

static void chain_free(Sim *s, int id) {
    free(s->chains[id]);
    s->chains[id] = 0;
    s->ch_free[s->ch_free_n++] = id;
}

void sim_push_chain_updown(Sim *s, double t, int nh, double cw, double co,
                           double cocc, double dw, double dov, double docc,
                           int done_id, int auto_resume) {
    /* hosts staged in stage_i[0..nh); nh >= 2.  Up = control, down = data. */
    int n = 2 * (nh - 1);
    int id = chain_alloc(s, n, done_id, auto_resume);
    Chain *ch = s->chains[id];
    int *hosts = s->stage_i;
    for (int j = 0; j < nh - 1; j++) {
        ch->legs[j] = (Leg){hosts[j], hosts[j + 1], 0, cw, co, cocc};
        ch->legs[nh - 1 + j] =
            (Leg){hosts[nh - 1 - j], hosts[nh - 2 - j], 1, dw, dov, docc};
    }
    heap_push(s, t, s->seqno++, K_CHAIN, id, 0, 0, 0);
}

static void chain_push_path(Sim *s, double t, const int *hosts, int nh,
                            int reverse, double w, double o, double occ,
                            int isdat, int done_id, int auto_resume) {
    /* one cost shape, one direction along hosts[0..nh) */
    int n = nh - 1;
    int id = chain_alloc(s, n, done_id, auto_resume);
    Chain *ch = s->chains[id];
    for (int j = 0; j < n; j++)
        ch->legs[j] = reverse
            ? (Leg){hosts[nh - 1 - j], hosts[nh - 2 - j], isdat, w, o, occ}
            : (Leg){hosts[j], hosts[j + 1], isdat, w, o, occ};
    heap_push(s, t, s->seqno++, K_CHAIN, id, 0, 0, 0);
}

void sim_push_chain_path(Sim *s, double t, int nh, int reverse, double w,
                         double o, double occ, int isdat, int done_id,
                         int auto_resume) {
    /* hosts staged in stage_i[0..nh) */
    chain_push_path(s, t, s->stage_i, nh, reverse, w, o, occ, isdat, done_id,
                    auto_resume);
}

void sim_push_chain_legs(Sim *s, double t, int n, int done_id) {
    /* generic legs: stage_i holds src,dst,isdat triples; stage_d holds
       wire,over,occ triples. */
    int id = chain_alloc(s, n, done_id, 0);
    Chain *ch = s->chains[id];
    const int *si = s->stage_i;
    const double *sd = s->stage_d;
    for (int j = 0; j < n; j++, si += 3, sd += 3)
        ch->legs[j] = (Leg){si[0], si[1], si[2], sd[0], sd[1], sd[2]};
    heap_push(s, t, s->seqno++, K_CHAIN, id, 0, 0, 0);
}

/* -------------------------------------------------------------- multicast */
static int mc_new_pend(Mcast *m, int remaining, double tmax, int node,
                       int parent_host, int parent) {
    if (m->n_pend == m->cap_pend) {
        m->cap_pend *= 2;
        m->pends = (Pend *)realloc(m->pends, m->cap_pend * sizeof(Pend));
    }
    Pend *p = &m->pends[m->n_pend];
    p->remaining = remaining; p->tmax = tmax; p->node = node;
    p->parent_host = parent_host; p->parent = parent;
    return m->n_pend++;
}

static int mc_alloc(Sim *s, int tbl, int n_ints, int done_id, double dwire,
                    double dover, double docc, int ddat, double awire,
                    double aover, double aocc) {
    /* a multicast over tbl nodes whose tables (hosts, kid_cnt, kid_off,
       kids, ...) are slices of one n_ints block, left for the caller to
       fill */
    int id;
    if (s->mc_free_n) {
        id = s->mc_free[--s->mc_free_n];
    } else {
        id = s->mc_cap;
        s->mc_cap = s->mc_cap ? s->mc_cap * 2 : 16;
        s->mcs = (Mcast **)realloc(s->mcs, s->mc_cap * sizeof(Mcast *));
        s->mc_free = (int *)realloc(s->mc_free, s->mc_cap * sizeof(int));
        memset(s->mcs + id, 0, (s->mc_cap - id) * sizeof(Mcast *));
        for (int i = s->mc_cap - 1; i > id; i--) s->mc_free[s->mc_free_n++] = i;
    }
    Mcast *m = (Mcast *)malloc(sizeof(Mcast));
    m->done_id = done_id;
    m->dwire = dwire; m->dover = dover; m->docc = docc; m->ddat = ddat;
    m->awire = awire; m->aover = aover; m->aocc = aocc;
    m->hosts = (int *)malloc(n_ints * sizeof(int));
    m->kid_cnt = m->hosts + tbl;
    m->kid_off = m->hosts + 2 * tbl;
    m->kids = m->hosts + 3 * tbl;
    m->cap_pend = 8;
    m->pends = (Pend *)malloc(m->cap_pend * sizeof(Pend));
    m->n_pend = 0;
    m->wr_nh = 0;
    s->mcs[id] = m;
    return id;
}

static void mc_start(Sim *s, int id, double t, int root_host,
                     const int *root_kids, int n_kids) {
    mc_new_pend(s->mcs[id], n_kids, t, 0, 0, -1); /* root pend = index 0 */
    for (int j = 0; j < n_kids; j++)
        heap_push(s, t, s->seqno++, K_MDOWN, id, root_kids[j], root_host, 0);
}

void sim_push_mcast(Sim *s, double t, int root_host, int n_kids, int tbl,
                    int total_kids, double dwire, double dover, double docc,
                    int ddat, double awire, double aover, double aocc,
                    int done_id) {
    /* stage_i layout: hosts[tbl], kid_cnt[tbl], kid_off[tbl],
       kids[total_kids], root_kids[n_kids] */
    int n_ints = 3 * tbl + total_kids;
    int id = mc_alloc(s, tbl, n_ints, done_id, dwire, dover, docc, ddat,
                      awire, aover, aocc);
    memcpy(s->mcs[id]->hosts, s->stage_i, n_ints * sizeof(int));
    mc_start(s, id, t, root_host, s->stage_i + n_ints, n_kids);
}

static void mc_free_one(Sim *s, int id) {
    Mcast *m = s->mcs[id];
    free(m->hosts); free(m->pends); free(m);
    s->mcs[id] = 0;
    s->mc_free[s->mc_free_n++] = id;
}

/* ------------------------------------------------------- serving fast path
 *
 * The request path of the serving session, mirrored move for move from
 * serve/session.py's dispatcher generators (see that module's docstring):
 * same event keys (time, seq) at the same logical points, so a served
 * run is bit-identical between this fast path and the classic
 * generator-based path.
 *
 *   parked kick          ->  K_SREQ pushed at injection (idle proc)
 *   queued-gap ComputeReq->  K_SREQ pushed at the previous completion
 *   flow auto-resume     ->  K_SDONE at the chain-completion push point
 *   strategy done > now  ->  sim_serve_push_done (Python crossing point)
 *   local hit/write      ->  handled natively when the residency mirror
 *                            proves the strategy call is side-effect-free
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

static int serve_flow(Sim *s, int p, const SReq *cur);

/* Dispatch queued requests for processor p until one must wait (timer),
 * one crosses into Python (returns 1, crossing filled), or the queue is
 * empty.  Mirrors the dispatcher generator's loop head. */
static int serve_advance(Sim *s, int p, Crossing *out) {
    SRing *q = &s->sv_q[p];
    for (;;) {
        if (!q->len) {
            s->sv_state[p] = 0;      /* parked */
            return 0;
        }
        SReq *head = &q->buf[q->head];
        if (head->eff > s->sv_now) {
            /* idle until the arrival: the classic path schedules a kick
               (parked) or a ComputeReq resume (queued gap) here. */
            heap_push(s, head->eff, s->seqno++, K_SREQ, p, 0, 0, 0);
            s->sv_state[p] = 1;
            return 0;
        }
        SReq cur = *head;
        q->head = (q->head + 1) & (q->cap - 1);
        q->len--;
        int vid = cur.vid;
        /* 1 = the mirror proves the strategy call side-effect-free,
           0 = it proves a miss / remote write, -1 = it may not say */
        int native = -1;
        if (cur.kind == 0) {
            if (s->sv_nat_r) {
                unsigned long long *w = s->sv_bits + (size_t)vid * s->sv_words;
                int site = s->sv_site_of[p];
                native = (w[site >> 6] & (1ULL << (site & 63))) != 0;
                s->sv_hits += native;
            }
        } else if (s->sv_nat_w) {
            if (s->sv_wl_rule == 0) {
                native = (s->sv_var[vid].owner == p);
            } else {
                unsigned long long *w = s->sv_bits + (size_t)vid * s->sv_words;
                int site = s->sv_site_of[p];
                native = (s->sv_var[vid].count == 1 &&
                          (w[site >> 6] & (1ULL << (site & 63))) != 0);
            }
            s->sv_wlocal += native;
        }
        if (native == 1) {
            /* local hit / owner write: zero simulated time, zero side
               effects beyond the counter -- complete in place. */
            serve_record(s, &cur, s->sv_now);
            continue;
        }
        s->sv_cur[p] = cur;
        s->sv_state[p] = 2;
        if (native == 0 && s->sv_flow && serve_flow(s, p, &cur))
            /* miss / invalidation flow launched natively: this proc
               blocks until its K_SDONE, exactly like a crossed request */
            return 0;
        s->sv_crossed[cur.kind]++;
        out->kind = R_SREQ;
        out->a = p;
        out->b = vid * 2 + cur.kind;
        out->time = s->sv_now;
        return 1;
    }
}

/* One injection round: move pending requests whose arrival is within the
 * horizon into the per-proc queues while the in-flight window has room.
 * Mirrors ServeSession.pump's inject loop (same admission order, same
 * eff clamp, same kick points). */
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
            /* parked processor: the wake-up kick, stamped at eff */
            heap_push(s, eff, s->seqno++, K_SREQ, p, 0, 0, 0);
            s->sv_state[p] = 1;
        }
        s->sv_inflight++;
        n++;
    }
    return n;
}

void sim_serve_init(Sim *s, int nsites, int wl_rule, int nat_r, int nat_w,
                    int flow, i64 max_inflight) {
    /* flow arms the native read-miss and write flows: 0 = none, 1 = the
       access tree's, 2 = the fixed-home directory's.  Staged in stage_i:
       site_of[n_nodes], then (flow == 1: the static tree shape)
       parent[nsites], depth[nsites], kid_off[nsites + 1] and the
       kid_off[nsites] child ids it indexes; in stage_d (flow != 0): the
       strategy's storage accumulator (integral, last, excess), which the
       kernel takes over because native flows place and drop copies */
    int n = s->n_nodes;
    s->serve_on = 1;
    s->sv_nsites = nsites;
    s->sv_words = (nsites + 63) >> 6;
    s->sv_wl_rule = wl_rule;
    s->sv_nat_r = nat_r;
    s->sv_nat_w = nat_w;
    s->sv_max_inflight = max_inflight;
    s->sv_q = (SRing *)malloc(n * sizeof(SRing));
    for (int p = 0; p < n; p++) ring_init(&s->sv_q[p], 16);
    ring_init(&s->sv_pend, 1024);
    s->sv_cur = (SReq *)calloc(n, sizeof(SReq));
    s->sv_state = (unsigned char *)calloc(n, 1);
    s->sv_site_of = (int *)malloc(n * sizeof(int));
    memcpy(s->sv_site_of, s->stage_i, n * sizeof(int));
    s->sv_rec_cap = 4096;
    s->sv_rec = (SReq *)malloc(s->sv_rec_cap * sizeof(SReq));
    s->sv_var_cap = 256;
    s->sv_bits = (unsigned long long *)calloc(
        (size_t)s->sv_var_cap * s->sv_words, sizeof(unsigned long long));
    s->sv_var = (SVar *)calloc(s->sv_var_cap, sizeof(SVar));
    s->sv_flow = flow;
    if (!flow) return;
    s->sc_integral = s->stage_d[0];
    s->sc_last = s->stage_d[1];
    s->sc_excess = s->stage_d[2];
    if (flow != 1) return;
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
    if (s->sv_flow == 1)
        s->sv_host = (int *)realloc(
            s->sv_host, (size_t)s->sv_var_cap * s->sv_nsites * sizeof(int));
}

void sim_serve_sync_var(Sim *s, int vid, int owner, int top, int n_members) {
    /* member sites staged in stage_i[0..n_members); top is the component
       top the native miss walk starts from (tree mirrors only) */
    sv_grow_vars(s, vid);
    unsigned long long *w = s->sv_bits + (size_t)vid * s->sv_words;
    memset(w, 0, s->sv_words * sizeof(unsigned long long));
    for (int j = 0; j < n_members; j++) {
        int site = s->stage_i[j];
        w[site >> 6] |= 1ULL << (site & 63);
    }
    s->sv_var[vid].owner = owner;
    s->sv_var[vid].count = n_members;
    s->sv_var[vid].top = top;
}

void sim_serve_var_flow(Sim *s, int vid, double payload, double cw, double co,
                        double cocc, double dw, double dov, double docc) {
    /* the per-vid flow shape a native flow replays, staged in stage_i:
       the node->host row [0..nsites) (tree) or the home processor [0]
       (directory); costs from the strategy's leg table. */
    sv_grow_vars(s, vid);
    if (s->sv_flow == 1)
        memcpy(s->sv_host + (size_t)vid * s->sv_nsites, s->stage_i,
               s->sv_nsites * sizeof(int));
    else
        s->sv_var[vid].home = s->stage_i[0];
    double *fc = s->sv_var[vid].cost;
    s->sv_var[vid].payload = payload;
    fc[0] = cw; fc[1] = co; fc[2] = cocc;
    fc[3] = dw; fc[4] = dov; fc[5] = docc;
}

int sim_serve_export(Sim *s, int vid) {
    /* the vid's residency as native flows left it: member sites into
       stage_i[0..n), the component top (directory flow: the owner) into
       stage_i[n]; returns n (Python adopts it at a fallback crossing and
       at close; arming sized stage_i past nsites + 1). */
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
    s->stage_i[n] = s->sv_flow == 2 ? s->sv_var[vid].owner : s->sv_var[vid].top;
    return n;
}

void sim_serve_storage_delta(Sim *s, double delta, double t) {
    /* exact mirror of DataManagementStrategy._storage_delta */
    if (t > s->sc_last) {
        s->sc_integral += s->sc_excess * (t - s->sc_last);
        s->sc_last = t;
    }
    s->sc_excess += delta;
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

int sim_ensure_stage(Sim *s, int n);

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
            sim_serve_storage_delta(s, var->payload, t);
            if (depth[node] < depth[top]) top = node;
        }
    }
    var->top = top;
}

/* A native access-tree read miss: replay AccessTreeStrategy.read's miss
 * body without leaving C -- walk to the component, extend the copy set
 * down the path, and push the same up/down chain the Python path pushes,
 * consuming the same seqnos.  Returns 0 to fall back to a Python
 * crossing. */
static int serve_tree_miss(Sim *s, int p, const SReq *cur) {
    int vid = cur->vid;
    SVar *var = &s->sv_var[vid];
    unsigned long long *w = s->sv_bits + (size_t)vid * s->sv_words;
    int *path = s->sv_path;
    int np = sv_tree_path_cut(s, s->sv_site_of[p], var->top, w, path);
    if (np < 2) { s->sv_fallbacks++; return 0; }
    double t = s->sv_now;
    s->sv_misses++;
    sv_add_copies(s, var, w, path, np, t);
    sim_ensure_stage(s, np);
    const int *row = s->sv_host + (size_t)vid * s->sv_nsites;
    for (int i = 0; i < np; i++) s->stage_i[i] = row[path[i]];
    const double *fc = var->cost;
    sim_push_chain_updown(s, t, np, fc[0], fc[1], fc[2], fc[3], fc[4], fc[5],
                          p, 2);
    return 1;
}

/* Completion of a native write's invalidation at t: the modified copy
 * (directory: the ownership grant) travels back down the request path,
 * or, writer at the root, the request is done -- the write's
 * after_inval / after_acks. */
static void serve_write_reply(Sim *s, const Mcast *m, double t) {
    if (m->wr_nh == 1)
        heap_push(s, t, s->seqno++, K_SDONE, m->done_id, 0, 0, 0);
    else
        chain_push_path(s, t, m->wr_hosts, m->wr_nh, 1, m->rwire, m->rover,
                        m->rocc, m->rdat, m->done_id, 2);
}

/* The new value reached the component root at t: multicast the
 * invalidations over the snapshot, or reply at once when the root held
 * the sole copy -- after_request + multicast_acks' childless case. */
static void serve_write_mcast(Sim *s, int id, double t) {
    Mcast *m = s->mcs[id];
    if (m->kid_cnt[0]) {
        mc_start(s, id, t, m->hosts[0], m->kids, m->kid_cnt[0]);
    } else {
        serve_write_reply(s, m, t);
        mc_free_one(s, id);
    }
}

/* A native access-tree write (not the local sole-copy one): replay
 * AccessTreeStrategy.write without leaving C.  Cut the leaf-to-top path
 * at the first member u; snapshot the component rooted at u into a
 * multicast (local id 0 = u; each node's kids in write's order: member
 * parent first, then the tree's child order); collapse the copy set to
 * the path u..leaf; run request chain -> invalidation -> reply chain ->
 * K_SDONE, the continuations native (chain auto_resume 3, Mcast.wr_nh)
 * where the Python path crosses on R_CHAIN_DONE / R_MC_DONE, consuming
 * the same seqnos.  Returns 0 to fall back to a Python crossing. */
static int serve_tree_write(Sim *s, int p, const SReq *cur) {
    int vid = cur->vid;
    SVar *var = &s->sv_var[vid];
    unsigned long long *w = s->sv_bits + (size_t)vid * s->sv_words;
    int *path = s->sv_path;
    int np = sv_tree_path_cut(s, s->sv_site_of[p], var->top, w, path);
    if (np < 1) { s->sv_fallbacks++; return 0; }
    double t = s->sv_now;
    s->sv_wremote++;
    const double *fc = var->cost;
    const int *row = s->sv_host + (size_t)vid * s->sv_nsites;
    int u = path[np - 1], tbl = var->count;
    /* block: hosts, kid_cnt, kid_off [tbl each], kids [tbl - 1], path hosts */
    int id = mc_alloc(s, tbl, 4 * tbl - 1 + np, p, fc[0], fc[1], fc[2], 0,
                      fc[0], fc[1], fc[2]);
    Mcast *m = s->mcs[id];
    m->wr_nh = np;
    m->wr_hosts = m->kids + tbl - 1;
    m->rwire = fc[3]; m->rover = fc[4]; m->rocc = fc[5]; m->rdat = 1;
    for (int i = 0; i < np; i++) m->wr_hosts[i] = row[path[i]];
    int *node = s->sv_scr_a, *from = s->sv_scr_b;  /* by local id */
    int n = 1, nk = 0;
    node[0] = u; from[0] = -1; m->hosts[0] = row[u];
    for (int i = 0; i < n; i++) {
        int x = node[i], frm = from[i];
        const int *kid = s->sv_kid + s->sv_kid_off[x];
        int nc = s->sv_kid_off[x + 1] - s->sv_kid_off[x];
        m->kid_off[i] = nk;
        for (int j = -1; j < nc; j++) {     /* j == -1: the parent */
            int k = j < 0 ? s->sv_parent[x] : kid[j];
            if (k < 0 || k == frm || !(w[k >> 6] & (1ULL << (k & 63))))
                continue;
            node[n] = k; from[n] = x; m->hosts[n] = row[k];
            m->kids[nk++] = n++;
        }
        m->kid_cnt[i] = nk - m->kid_off[i];
    }
    /* state update, atomic at initiation */
    sim_serve_storage_delta(s, (double)(1 - var->count) * var->payload, t);
    memset(w, 0, s->sv_words * sizeof(unsigned long long));
    w[u >> 6] |= 1ULL << (u & 63);
    var->count = 1;
    var->top = u;
    sv_add_copies(s, var, w, path, np, t);
    if (np == 1)
        serve_write_mcast(s, id, t);     /* writer already at u */
    else
        chain_push_path(s, t, m->wr_hosts, np, 0, fc[3], fc[4], fc[5], 1,
                        id, 3);
    return 1;
}

/* A native fixed-home read miss: replay FixedHomeStrategy.read's miss
 * body (_read_miss_flow, replicate always) without leaving C -- the
 * round trip proc -> home [-> owner], control up, data down, after the
 * state update in the Python path's order. */
static int serve_home_miss(Sim *s, int p, const SReq *cur) {
    SVar *var = &s->sv_var[cur->vid];
    unsigned long long *w = s->sv_bits + (size_t)cur->vid * s->sv_words;
    int home = var->home, nh = 2;
    double t = s->sv_now;
    s->sv_misses++;
    s->stage_i[0] = p; s->stage_i[1] = home;
    if (var->owner >= 0) {
        /* the home fetches the value from the owner, which keeps a copy;
           ownership moves back to main memory */
        s->stage_i[nh++] = var->owner;
        var->owner = -1;
        if (!(w[home >> 6] & (1ULL << (home & 63)))) {
            w[home >> 6] |= 1ULL << (home & 63);
            var->count++;
            sim_serve_storage_delta(s, var->payload, t);
        }
    }
    /* The reader's copy.  REPLAYED QUIRK, not a fix: a reader that is the
       home (a remote processor owning) just got its copy above, and
       _read_miss_flow still accounts +payload for it here -- one new
       member, two deltas.  The pinned storage_cost fingerprints carry
       the double delta; see ROADMAP item 2. */
    if (!(w[p >> 6] & (1ULL << (p & 63)))) {
        w[p >> 6] |= 1ULL << (p & 63);
        var->count++;
    }
    sim_serve_storage_delta(s, var->payload, t);
    const double *fc = var->cost;
    sim_push_chain_updown(s, t, nh, fc[0], fc[1], fc[2], fc[3], fc[4], fc[5],
                          p, 2);
    return 1;
}

/* A native fixed-home write by a non-owner: replay FixedHomeStrategy.write
 * without leaving C.  Snapshot sorted(copies - {writer}) into a star
 * multicast rooted at the home (local id 0; holder i is local id i + 1),
 * collapse the copy set to the writer, who becomes the owner, then run
 * request leg -> invalidations + acks -> grant leg -> K_SDONE with the
 * tree write's native continuations (chain auto_resume 3, Mcast.wr_nh).
 * All control messages; proc == home and a holder at the home are local
 * legs, still legs; no holders: request -> grant with no K_MDOWN. */
static int serve_home_write(Sim *s, int p, const SReq *cur) {
    SVar *var = &s->sv_var[cur->vid];
    unsigned long long *w = s->sv_bits + (size_t)cur->vid * s->sv_words;
    const double *fc = var->cost;
    double t = s->sv_now;
    s->sv_wremote++;
    int k = var->count - (int)((w[p >> 6] >> (p & 63)) & 1);
    int tbl = k + 1;
    /* block: hosts, kid_cnt, kid_off [tbl each], kids [k], {writer, home} */
    int id = mc_alloc(s, tbl, 3 * tbl + k + 2, p, fc[0], fc[1], fc[2], 0,
                      fc[0], fc[1], fc[2]);
    Mcast *m = s->mcs[id];
    m->wr_nh = 2;
    m->wr_hosts = m->kids + k;
    m->wr_hosts[0] = p; m->wr_hosts[1] = var->home;
    m->rwire = fc[0]; m->rover = fc[1]; m->rocc = fc[2]; m->rdat = 0;
    memset(m->kid_cnt, 0, 2 * tbl * sizeof(int));  /* kid_cnt and kid_off */
    m->hosts[0] = var->home;
    m->kid_cnt[0] = k;
    int n = 0;
    for (int wd = 0; wd < s->sv_words; wd++) {
        unsigned long long bits = w[wd];
        while (bits) {
            int q = wd * 64 + __builtin_ctzll(bits);
            bits &= bits - 1;
            if (q == p) continue;
            m->kids[n] = n + 1;
            m->hosts[++n] = q;
        }
    }
    /* state update, atomic at initiation */
    sim_serve_storage_delta(s, (double)(1 - var->count) * var->payload, t);
    memset(w, 0, s->sv_words * sizeof(unsigned long long));
    w[p >> 6] |= 1ULL << (p & 63);
    var->count = 1;
    var->owner = p;
    chain_push_path(s, t, m->wr_hosts, 2, 0, fc[0], fc[1], fc[2], 0, id, 3);
    return 1;
}

/* The armed flow mirror's replay of a miss / a remote write; 0 = it could
 * not (counted in sv_fallbacks): cross into Python. */
static int serve_flow(Sim *s, int p, const SReq *cur) {
    if (s->sv_flow == 1)
        return cur->kind ? serve_tree_write(s, p, cur)
                         : serve_tree_miss(s, p, cur);
    return cur->kind ? serve_home_write(s, p, cur) : serve_home_miss(s, p, cur);
}

i64 sim_serve_ingest(Sim *s, i64 n, const int *procs, const int *vids,
                     const int *kinds, const double *arrivals,
                     const double *walls) {
    /* append n admitted requests to the pending ring (ONE call per
       queue drain: the batched-ingest half of the fast path) */
    SReq it = {0};
    for (i64 j = 0; j < n; j++) {
        it.proc = procs[j]; it.vid = vids[j]; it.kind = kinds[j];
        it.arrival = arrivals[j]; it.wall = walls[j];
        ring_push(&s->sv_pend, &it);
    }
    return s->sv_pend.len;
}

int sim_serve_complete(Sim *s, Crossing *out, int p, double done) {
    /* Python-side strategy returned an immediate completion (done <= now):
       record it and keep dispatching; 1 = next request crossed (out). */
    serve_record(s, &s->sv_cur[p], done);
    return serve_advance(s, p, out);
}

void sim_serve_push_done(Sim *s, int p, double done) {
    /* Python-side strategy flow will complete at `done` (> now): the
       exact analogue of the classic path's schedule(done, _step, ...) */
    heap_push(s, done, s->seqno++, K_SDONE, p, 0, 0, 0);
}

void sim_serve_drain(Sim *s, ServeDrain *out) {
    /* Everything the session folds after a pump, in one call: the
       completion records (valid until the next run), the queue gauges,
       the native counter deltas and the storage accumulator.  Resets the
       records and the deltas. */
    out->n_rec = s->sv_rec_n; out->recs = s->sv_rec;
    out->inflight = s->sv_inflight; out->pending = s->sv_pend.len;
    out->hits = s->sv_hits; out->wlocal = s->sv_wlocal;
    out->misses = s->sv_misses; out->wremote = s->sv_wremote;
    out->crossed_r = s->sv_crossed[0]; out->crossed_w = s->sv_crossed[1];
    out->fallbacks = s->sv_fallbacks;
    out->sc_integral = s->sc_integral; out->sc_last = s->sc_last;
    out->sc_excess = s->sc_excess;
    s->sv_rec_n = 0;
    s->sv_hits = 0; s->sv_wlocal = 0; s->sv_misses = 0; s->sv_wremote = 0;
    s->sv_crossed[0] = 0; s->sv_crossed[1] = 0; s->sv_fallbacks = 0;
}

static void serve_free(Sim *s) {
    if (!s->serve_on) return;
    for (int p = 0; p < s->n_nodes; p++) free(s->sv_q[p].buf);
    free(s->sv_q); free(s->sv_cur); free(s->sv_state); free(s->sv_site_of);
    free(s->sv_pend.buf); free(s->sv_rec);
    free(s->sv_bits); free(s->sv_var);
    /* tree mirror only; NULL (calloc'ed Sim) otherwise */
    free(s->sv_parent); free(s->sv_depth); free(s->sv_kid_off);
    free(s->sv_host);
    free(s->sv_scr_a); free(s->sv_scr_b); free(s->sv_path);
}

/* ------------------------------------------------------------------ loop */
void sim_push_generic(Sim *s, double t, int obj) {
    heap_push(s, t, s->seqno++, K_GEN, obj, 0, 0, 0);
}

int sim_heap_size(Sim *s) { return s->heap_n; }
i64 sim_total_msgs(Sim *s) { return s->st_total; }
i64 sim_data_msgs(Sim *s) { return s->st_data; }
i64 sim_local_msgs(Sim *s) { return s->st_local; }

void sim_set_stats(Sim *s, double *bytes, i64 *msgs, i64 *startups,
                   i64 *receives) {
    s->st_bytes = bytes; s->st_msgs = msgs;
    s->st_startups = startups; s->st_receives = receives;
    s->st_total = 0; s->st_data = 0; s->st_local = 0;
}

int sim_run_until(Sim *s, Crossing *out, double horizon) {
  for (;;) {
    /* Serving mode interleaves injection rounds with event processing,
       exactly like the classic pump's do {inject; run} while (n) loop.
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
        if (ev.kind == K_CHAIN) {
            Chain *ch = s->chains[ev.a];
            int i = ev.b;
            const Leg *leg = &ch->legs[i];
            int need = 0;
            double arrive = do_leg(s, ev.time, leg->src, leg->dst, leg->wire,
                                   leg->over, leg->occ, leg->dat, &need);
            if (need) {
                out->kind = R_NEED_ROUTE;
                out->a = leg->src; out->b = leg->dst;
                heap_push(s, ev.time, ev.seq, ev.kind, ev.a, ev.b, ev.c, ev.d);
                return R_NEED_ROUTE;
            }
            i++;
            if (i == ch->n) {
                if (ch->auto_resume) {
                    /* completion just resumes a processor: schedule the
                       stored generic continuation at the completion time
                       without crossing into Python (seq order matches the
                       crossing-based path: nothing runs in between).
                       auto_resume == 2 is the serving fast path: done_id
                       is the processor id and the completion is consumed
                       natively (K_SDONE) instead of re-entering Python.
                       auto_resume == 3 is a native write's request chain:
                       done_id is its multicast, started here. */
                    if (ch->auto_resume == 3)
                        serve_write_mcast(s, ch->done_id, arrive);
                    else
                        heap_push(s, arrive, s->seqno++,
                                  ch->auto_resume == 2 ? K_SDONE : K_GEN,
                                  ch->done_id, 0, 0, 0);
                    chain_free(s, ev.a);
                    continue;
                }
                out->kind = R_CHAIN_DONE;
                out->a = ch->done_id;
                out->time = ev.time;
                out->targ = arrive;
                chain_free(s, ev.a);
                return R_CHAIN_DONE;
            }
            heap_push(s, arrive, s->seqno++, K_CHAIN, ev.a, i, 0, 0);
            continue;
        }
        if (ev.kind == K_MDOWN) {
            Mcast *m = s->mcs[ev.a];
            int node = ev.b;
            int hn = m->hosts[node];
            int need = 0;
            double t_here = do_leg(s, ev.time, ev.c, hn, m->dwire, m->dover,
                                   m->docc, m->ddat, &need);
            if (need) {
                out->kind = R_NEED_ROUTE;
                out->a = ev.c; out->b = hn;
                heap_push(s, ev.time, ev.seq, ev.kind, ev.a, ev.b, ev.c, ev.d);
                return R_NEED_ROUTE;
            }
            int cnt = m->kid_cnt[node];
            if (cnt) {
                int np = mc_new_pend(m, cnt, t_here, node, ev.c, ev.d);
                int *kk = m->kids + m->kid_off[node];
                for (int j = 0; j < cnt; j++)
                    heap_push(s, t_here, s->seqno++, K_MDOWN, ev.a, kk[j], hn, np);
            } else {
                heap_push(s, t_here, s->seqno++, K_MACK, ev.a, node, ev.c, ev.d);
            }
            continue;
        }
        if (ev.kind == K_MACK) {
            Mcast *m = s->mcs[ev.a];
            int hn = m->hosts[ev.b];
            int need = 0;
            double t_ack = do_leg(s, ev.time, hn, ev.c, m->awire, m->aover,
                                  m->aocc, 0, &need);
            if (need) {
                out->kind = R_NEED_ROUTE;
                out->a = hn; out->b = ev.c;
                heap_push(s, ev.time, ev.seq, ev.kind, ev.a, ev.b, ev.c, ev.d);
                return R_NEED_ROUTE;
            }
            Pend *p = &m->pends[ev.d];
            p->remaining--;
            if (t_ack > p->tmax) p->tmax = t_ack;
            if (p->remaining == 0) {
                if (p->parent < 0) {
                    if (m->wr_nh) {
                        serve_write_reply(s, m, p->tmax);
                        mc_free_one(s, ev.a);
                        continue;
                    }
                    out->kind = R_MC_DONE;
                    out->a = m->done_id;
                    out->time = ev.time;
                    out->targ = p->tmax;
                    mc_free_one(s, ev.a);
                    return R_MC_DONE;
                }
                heap_push(s, p->tmax, s->seqno++, K_MACK, ev.a, p->node,
                          p->parent_host, p->parent);
            }
            continue;
        }
        if (ev.kind == K_SREQ) {
            /* a wake-up kick or idle-until-arrival timer fired */
            if (serve_advance(s, ev.a, out)) return R_SREQ;
            continue;
        }
        if (ev.kind == K_SDONE) {
            /* a Python-owned flow (or auto_resume==2 chain) completed */
            serve_record(s, &s->sv_cur[ev.a], ev.time);
            if (serve_advance(s, ev.a, out)) return R_SREQ;
            continue;
        }
        out->kind = R_GENERIC;
        out->a = ev.a;
        out->time = ev.time;
        return R_GENERIC;
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
Sim *sim_new(int n_nodes, double hop, double local_ov, double *link_free,
             double *nic_free, int stage_cap) {
    Sim *s = (Sim *)calloc(1, sizeof(Sim));
    s->n_nodes = n_nodes;
    s->hop = hop;
    s->local_ov = local_ov;
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
    s->stage_d = (double *)malloc(stage_cap * sizeof(double));
    s->stage_cap = stage_cap;
    return s;
}

int sim_ensure_stage(Sim *s, int n) {
    /* Grow the staging buffers to hold >= n entries; returns the new
       capacity (callers re-fetch the buffer pointers after growth). */
    if (n > s->stage_cap) {
        while (s->stage_cap < n) s->stage_cap *= 2;
        s->stage_i = (int *)realloc(s->stage_i, s->stage_cap * sizeof(int));
        s->stage_d = (double *)realloc(s->stage_d, s->stage_cap * sizeof(double));
    }
    return s->stage_cap;
}

int *sim_stage_i(Sim *s) { return s->stage_i; }
double *sim_stage_d(Sim *s) { return s->stage_d; }

void sim_free(Sim *s) {
    for (int i = 0; i < s->ch_cap; i++) free(s->chains[i]);
    for (int i = 0; i < s->mc_cap; i++) {
        if (s->mcs[i]) {
            Mcast *m = s->mcs[i];
            free(m->hosts); free(m->pends); free(m);
        }
    }
    free(s->chains); free(s->ch_free); free(s->mcs); free(s->mc_free);
    free(s->heap); free(s->rt_keys); free(s->rt_off); free(s->rt_len);
    free(s->arena); free(s->rt_scratch); free(s->stage_i); free(s->stage_d);
    serve_free(s);
    free(s);
}
"""

_CDEF = """
typedef long long i64;
typedef struct { int kind; int a; int b; double time; double targ; } Crossing;
typedef struct { int proc, vid, kind, pad; double arrival, eff, done, wall; } SReq;
typedef struct {
    i64 n_rec, inflight, pending, hits, wlocal, misses, wremote;
    i64 crossed_r, crossed_w, fallbacks;
    double sc_integral, sc_last, sc_excess;
    const SReq *recs;
} ServeDrain;
typedef struct Sim Sim;

Sim *sim_new(int n_nodes, double hop, double local_ov, double *link_free,
             double *nic_free, int stage_cap);
void sim_free(Sim *s);
int *sim_stage_i(Sim *s);
double *sim_stage_d(Sim *s);
int sim_ensure_stage(Sim *s, int n);
void sim_set_stats(Sim *s, double *bytes, i64 *msgs, i64 *startups,
                   i64 *receives);
void sim_set_route(Sim *s, int src, int dst, int n);
void sim_clear_routes(Sim *s);
void sim_set_topology(Sim *s, int kind, int rows, int cols, int dim,
                      int cache);
int sim_compute_route(Sim *s, int src, int dst);
int *sim_route_scratch(Sim *s);
void sim_push_generic(Sim *s, double t, int obj);
void sim_push_chain_updown(Sim *s, double t, int nh, double cw, double co,
                           double cocc, double dw, double dov, double docc,
                           int done_id, int auto_resume);
void sim_push_chain_path(Sim *s, double t, int nh, int reverse, double w,
                         double o, double occ, int isdat, int done_id,
                         int auto_resume);
void sim_push_chain_legs(Sim *s, double t, int n, int done_id);
void sim_push_mcast(Sim *s, double t, int root_host, int n_kids, int tbl,
                    int total_kids, double dwire, double dover, double docc,
                    int ddat, double awire, double aover, double aocc,
                    int done_id);
int sim_run_until(Sim *s, Crossing *out, double horizon);
int sim_heap_size(Sim *s);
i64 sim_total_msgs(Sim *s);
i64 sim_data_msgs(Sim *s);
i64 sim_local_msgs(Sim *s);
double sim_send_leg(Sim *s, double time, int src, int dst, double wire,
                    double over, double occ, int isdat);
double sim_probe_leg(Sim *s, double time, int src, int dst, double wire,
                     double over, double occ);
void sim_serve_init(Sim *s, int nsites, int wl_rule, int nat_r, int nat_w,
                    int tree, i64 max_inflight);
void sim_serve_sync_var(Sim *s, int vid, int owner, int top, int n_members);
void sim_serve_var_flow(Sim *s, int vid, double payload, double cw, double co,
                        double cocc, double dw, double dov, double docc);
int sim_serve_export(Sim *s, int vid);
void sim_serve_storage_delta(Sim *s, double delta, double t);
i64 sim_serve_ingest(Sim *s, i64 n, const int *procs, const int *vids,
                     const int *kinds, const double *arrivals,
                     const double *walls);
int sim_serve_complete(Sim *s, Crossing *out, int p, double done);
void sim_serve_push_done(Sim *s, int p, double done);
void sim_serve_drain(Sim *s, ServeDrain *out);
"""

#: Staging buffer capacity (ints/doubles); bounds one chain/multicast/route.
STAGE_CAP = 1 << 16

_KERNEL = None
_KERNEL_TRIED = False


def _build_dir() -> pathlib.Path:
    env = os.environ.get("REPRO_CKERN_DIR")
    if env:
        return pathlib.Path(env)
    return pathlib.Path(tempfile.gettempdir()) / f"repro-ckern-{os.getuid()}"


def kernel_path() -> pathlib.Path:
    """Where the shared object of this source revision is cached: named
    by a content hash, so a build found there is used as it is
    (``tools/kernel_sanitize.py`` plants an instrumented one)."""
    src_hash = hashlib.sha256(
        (CKERN_SOURCE + _CDEF + sys.version).encode()
    ).hexdigest()[:16]
    return _build_dir() / f"ckern-{src_hash}.so"


def _compile() -> pathlib.Path:
    """Compile the kernel into the cache dir; returns the .so path."""
    so_path = kernel_path()
    so_path.parent.mkdir(parents=True, exist_ok=True)
    if so_path.exists():
        return so_path
    c_path = so_path.with_suffix(".c")
    c_path.write_text(CKERN_SOURCE)
    tmp = so_path.with_suffix(f".tmp{os.getpid()}.so")
    cc = os.environ.get("CC", "cc")
    subprocess.run(
        [cc, "-O2", "-fPIC", "-shared", "-o", str(tmp), str(c_path)],
        check=True,
        capture_output=True,
        timeout=120,
    )
    os.replace(tmp, so_path)  # atomic: concurrent builders converge
    return so_path


class Kernel:
    """Loaded kernel: the cffi handle pair plus result-code constants."""

    R_DONE = 0
    R_GENERIC = 1
    R_CHAIN_DONE = 2
    R_MC_DONE = 3
    R_NEED_ROUTE = 4
    R_SREQ = 5

    def __init__(self, ffi, lib):
        self.ffi = ffi
        self.lib = lib


def load_kernel():
    """The process-wide kernel, or ``None`` when unavailable/disabled."""
    global _KERNEL, _KERNEL_TRIED
    if _KERNEL_TRIED:
        return _KERNEL
    _KERNEL_TRIED = True
    if os.environ.get("REPRO_PURE_PYTHON"):
        return None
    try:
        from cffi import FFI

        ffi = FFI()
        ffi.cdef(_CDEF)
        lib = ffi.dlopen(str(_compile()))
        _KERNEL = Kernel(ffi, lib)
    except Exception:
        _KERNEL = None
    return _KERNEL
