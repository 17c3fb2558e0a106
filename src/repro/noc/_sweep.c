/*
 * Native NoC dataplane: the SA/ST, VA and RC stages of plain and DISCO
 * routers, the landing of link flits and NI injection, over the
 * fabric's struct-of-arrays plane (repro.noc.fabric_state).
 *
 * Plain C99, no Python headers.  repro.noc.native compiles this file
 * once into a shared library, loads it with ctypes and calls, per cycle:
 * repro_land() once per landed slot of the arrival ring (net.arrivals),
 * repro_sweep() once per run of consecutive natively swept routers
 * (net.routers) and repro_inject() over the NIs due this cycle
 * (net.nis).  The C side owns every array update of switch allocation,
 * switch traversal (tail release included), VC allocation, route
 * computation from the network's route table, the buffer write of a
 * landing or injected flit, and NI streaming (local VC pick,
 * reservation, credit check, flit emission).
 *
 * Packets are integer handles (pkt_id per VC, -1: none); Python keeps the
 * handle -> Packet table.  The per-handle arrays pkt_size, pkt_vnet,
 * pkt_dst, pkt_prio and pkt_cand mirror the packet; pkt_hops counts its
 * hops.  A link send appends the target VC and the handle to the arrival
 * ring (repro.noc.network.ArrivalQueue); a landing head binds by writing
 * pkt_id, so no link send makes a Python event unless it aborts an
 * engine job or its VC still holds one at the tail.  What touches Python
 * objects is written to an ordered event buffer the caller replays:
 * ejections (the tail's handle), engine aborts, route-table misses and
 * the arbitrator candidates of a DISCO router that yields.
 *
 * A DISCO router (engine_cap > 0) differs from a plain one only in its
 * SA: a VC whose engine job is locked cannot request, arbitration takes
 * the highest pkt_prio first, and a head flit sent from a VC with an
 * abortable job aborts that job.  Its arbitrator and engine run in
 * Python (DiscoRouter.post_tick): when they may have work this cycle,
 * the call stops right after that router and hands it back (see
 * repro_sweep).  repro_inject likewise stops at an NI with a pending
 * delivery that is due: Python delivers (which may queue packets at
 * later NIs) before that NI's streams run.
 *
 * The arithmetic mirrors Router._switch_allocation, _send_flit,
 * _vc_allocation and NetworkInterface.tick line for line;
 * tests/test_native_sweep.py holds the two paths to identical counters,
 * wake counts and digests.  A VC is "bound" (holds a packet) exactly
 * when its state is not VC_IDLE and exactly when its pkt_id is not -1.
 */

#include <stdint.h>

#define SWEEP_ABI 4

#define VC_IDLE 0
#define VC_ROUTING 1
#define VC_VA 2
#define VC_ACTIVE 3

#define PORT_LOCAL 0

/* engine_vc codes (repro.noc.fabric_state). */
#define ENGINE_IDLE 0
#define ENGINE_ABORTABLE 1
#define ENGINE_LOCKED 2

/* Largest router this file handles; bigger fabrics use the Python sweep. */
#define MAX_ROUTER_VCS 512

/* Descriptor slots: array addresses first (the per-handle ones last,
 * since they move when the handle table grows), then scalars. */
enum {
    D_STATE, D_FLITS_PRESENT, D_FLITS_RECEIVED, D_FLITS_SENT, D_INCOMING,
    D_RESERVED, D_OUT_PORT, D_OUT_VC_CLASS, D_OUT_VC, D_WAIT_CYCLES,
    D_CREDIT_DEBT, D_WEDGED_UNTIL, D_EJECT_TOKENS, D_PKT_ID, D_ENGINE_VC,
    D_ENGINE_JOBS, D_ENGINE_CAP, D_SA_RR, D_ROUTE, D_RING, D_RING_PKT,
    D_RING_COUNT, D_RING_DUE, D_LAND_MARK, D_NI_VID, D_NI_PKT, D_NI_SENT,
    D_NI_HEAD, D_NI_READY, D_NI_DELIVER, D_VC_BASE, D_PORT_BASE, D_RADIX,
    D_DOWN_VID, D_VA_MASK, D_VC_NODE, D_NODES, D_BUSY, D_EVENTS,
    D_COUNTERS, D_LANDED, D_WOKEN, D_POPPED, D_REARM, D_PKT_SIZE,
    D_PKT_VNET, D_PKT_DST,
    D_PKT_PRIO, D_PKT_CAND, D_PKT_HOPS, D_VCS_PER_PORT, D_DEPTH, D_SAF,
    D_WHOLE_PACKET, D_RR_STRIDE, D_N_NODES, D_RING_SLOTS, D_RING_CAP,
    D_LINK_LATENCY, D_VNETS, D_LEN
};

/* Call arguments, written by the caller before each call (one array, so
 * a call converts two pointers and nothing else). */
enum { A_NOW, A_START, A_N, A_RESUMED, A_SLOT, A_LEN };

/* Counter slots, rewritten by every call.  C_YIELD is the index in
 * nodes[] of the router (NI) the call stopped at (-1: it visited them
 * all); C_BUSY the number of indices written to busy[];
 * C_RC_START is the event index where that router's RC events begin;
 * C_OPENED is 1 when the call put the first flit into its ring slot (the
 * caller wakes the arrival queue for it); C_ERR_ARG qualifies an error.
 * repro_inject: C_INJECTED flits streamed, C_WOKEN routers to wake,
 * C_POPPED queue heads popped, C_REARM NIs to re-arm. */
enum {
    C_TICKED, C_SENDS, C_LINK_FLITS, C_VA_GRANTS, C_SA_LOSSES, C_ERR_VID,
    C_DISCO_TICKED, C_YIELD, C_RC_START, C_OPENED, C_ERR_ARG, C_BUSY,
    C_INJECTED, C_WOKEN, C_POPPED, C_REARM, C_LEN
};

/* Arrival ring entries: target vid << 2 | RING_HEAD | RING_TAIL, with the
 * packet's handle at the same index of ring_pkt.  Slot s holds up to
 * ring_cap entries, all due at cycle ring_due[s]; a flit sent at cycle c
 * lands at c + link_latency, in slot (c + L) % slots. */
#define RING_HEAD 1
#define RING_TAIL 2

/* Route table entries: out_port << 2 | (vc_class + 1); -1 = not yet
 * computed (repro.noc.network.Network.route). */
#define ROUTE_MISS (-1)

/* Event codes: (code, vid, arg) triples.  EV_EJECT is a flit ejected from
 * VC vid (with EV_TAIL, arg is its packet's handle, which the caller
 * retires); EV_TAIL alone a link tail whose VC still held an engine job;
 * EV_ABORT flags a send whose VC's engine job must be aborted first;
 * EV_CANDIDATE names an arbitrator candidate of the router the call
 * stopped after; EV_ROUTE a VC whose route Python computes (a table miss,
 * or any RC of a router the call stopped after). */
#define EV_ROUTE 1
#define EV_SEND 2
#define EV_TAIL 8
#define EV_EJECT 16
#define EV_ABORT 32
#define EV_CANDIDATE 64

/* repro_inject re-arm entry for an NI whose next wake Python computes
 * after refilling the queue heads it popped. */
#define REARM_DEFER (-1)

/* Negative return values: the caller raises the Python path's error. */
#define ERR_TAIL_BUFFERED (-1)
#define ERR_PACKET_TOO_BIG (-2)
#define ERR_NO_NEIGHBOR (-3)
#define ERR_ROUTER_TOO_BIG (-4)
#define ERR_VC_COLLISION (-5)
#define ERR_RING_OVERFLOW (-6)
#define ERR_RING_CONFLICT (-7)

typedef struct {
    int64_t *state, *flits_present, *flits_received, *flits_sent, *incoming;
    int64_t *reserved, *out_port, *out_vc_class, *out_vc, *wait_cycles;
    int64_t *credit_debt, *wedged_until, *eject_tokens, *pkt_id, *engine_vc;
    int64_t *engine_jobs, *engine_cap, *sa_rr, *route, *ring, *ring_pkt;
    int64_t *ring_count, *ring_due, *land_mark;
    int64_t *ni_vid, *ni_pkt, *ni_sent, *ni_head, *ni_ready, *ni_deliver;
    const int64_t *vc_base, *port_base, *radix, *down_vid, *va_mask;
    const int64_t *vc_node;
    const int64_t *pkt_size, *pkt_vnet, *pkt_dst, *pkt_prio, *pkt_cand;
    int64_t *pkt_hops;
    int64_t vcs_per_port, depth, saf, whole_packet, rr_stride, n_nodes;
    int64_t ring_slots, ring_cap, link_latency, vnets;
} fabric;

static int64_t *ptr(const int64_t *desc, int slot)
{
    return (int64_t *)(intptr_t)desc[slot];
}

static void unpack(const int64_t *d, fabric *f)
{
    f->state = ptr(d, D_STATE);
    f->flits_present = ptr(d, D_FLITS_PRESENT);
    f->flits_received = ptr(d, D_FLITS_RECEIVED);
    f->flits_sent = ptr(d, D_FLITS_SENT);
    f->incoming = ptr(d, D_INCOMING);
    f->reserved = ptr(d, D_RESERVED);
    f->out_port = ptr(d, D_OUT_PORT);
    f->out_vc_class = ptr(d, D_OUT_VC_CLASS);
    f->out_vc = ptr(d, D_OUT_VC);
    f->wait_cycles = ptr(d, D_WAIT_CYCLES);
    f->credit_debt = ptr(d, D_CREDIT_DEBT);
    f->wedged_until = ptr(d, D_WEDGED_UNTIL);
    f->eject_tokens = ptr(d, D_EJECT_TOKENS);
    f->pkt_id = ptr(d, D_PKT_ID);
    f->engine_vc = ptr(d, D_ENGINE_VC);
    f->engine_jobs = ptr(d, D_ENGINE_JOBS);
    f->engine_cap = ptr(d, D_ENGINE_CAP);
    f->sa_rr = ptr(d, D_SA_RR);
    f->route = ptr(d, D_ROUTE);
    f->ring = ptr(d, D_RING);
    f->ring_pkt = ptr(d, D_RING_PKT);
    f->ring_count = ptr(d, D_RING_COUNT);
    f->ring_due = ptr(d, D_RING_DUE);
    f->land_mark = ptr(d, D_LAND_MARK);
    f->ni_vid = ptr(d, D_NI_VID);
    f->ni_pkt = ptr(d, D_NI_PKT);
    f->ni_sent = ptr(d, D_NI_SENT);
    f->ni_head = ptr(d, D_NI_HEAD);
    f->ni_ready = ptr(d, D_NI_READY);
    f->ni_deliver = ptr(d, D_NI_DELIVER);
    f->vc_base = ptr(d, D_VC_BASE);
    f->port_base = ptr(d, D_PORT_BASE);
    f->radix = ptr(d, D_RADIX);
    f->down_vid = ptr(d, D_DOWN_VID);
    f->va_mask = ptr(d, D_VA_MASK);
    f->vc_node = ptr(d, D_VC_NODE);
    f->pkt_size = ptr(d, D_PKT_SIZE);
    f->pkt_vnet = ptr(d, D_PKT_VNET);
    f->pkt_dst = ptr(d, D_PKT_DST);
    f->pkt_prio = ptr(d, D_PKT_PRIO);
    f->pkt_cand = ptr(d, D_PKT_CAND);
    f->pkt_hops = ptr(d, D_PKT_HOPS);
    f->vcs_per_port = d[D_VCS_PER_PORT];
    f->depth = d[D_DEPTH];
    f->saf = d[D_SAF];
    f->whole_packet = d[D_WHOLE_PACKET];
    f->rr_stride = d[D_RR_STRIDE];
    f->n_nodes = d[D_N_NODES];
    f->ring_slots = d[D_RING_SLOTS];
    f->ring_cap = d[D_RING_CAP];
    f->link_latency = d[D_LINK_LATENCY];
    f->vnets = d[D_VNETS];
}

int64_t repro_sweep_abi(void)
{
    return SWEEP_ABI;
}

/* InputVC.accept_flit: one flit of packet `handle` into VC i.  A head
 * binds the packet (ERR_VC_COLLISION when the VC is still bound). */
static int64_t accept_flit(const fabric *f, int64_t i, int64_t handle,
                           int head, int64_t *counters)
{
    if (f->incoming[i] > 0)
        f->incoming[i]--;
    if (head) {
        if (f->pkt_id[i] >= 0) {
            counters[C_ERR_VID] = i;
            return ERR_VC_COLLISION;
        }
        f->pkt_id[i] = handle;
        f->reserved[i] = 0;
        f->state[i] = VC_ROUTING;
        f->flits_received[i] = 0;
        f->flits_sent[i] = 0;
        f->wait_cycles[i] = 0;
    }
    f->flits_present[i]++;
    f->flits_received[i]++;
    return 0;
}

/* Router.has_work: a bound VC, a flit in flight toward it, or a
 * reservation; DiscoRouter.has_work adds a job in the engine. */
static int has_work(const fabric *f, int64_t node, int64_t lo, int64_t hi)
{
    if (f->engine_jobs[node] > 0)
        return 1;
    for (int64_t i = lo; i < hi; i++) {
        if (f->state[i] != VC_IDLE || f->incoming[i] || f->reserved[i])
            return 1;
    }
    return 0;
}

static void emit(int64_t *events, int64_t *n_ev, int64_t code, int64_t vid,
                 int64_t target)
{
    int64_t *e = events + 3 * *n_ev;
    e[0] = code;
    e[1] = vid;
    e[2] = target;
    (*n_ev)++;
}

/* ArrivalQueue.schedule: append a flit of packet `handle` sent on a
 * link toward VC target, due at now + link_latency. */
static int64_t schedule(const fabric *f, int64_t now, int64_t handle,
                        int64_t target, int64_t flags, int64_t *counters)
{
    int64_t due = now + f->link_latency;
    int64_t slot = due % f->ring_slots;
    int64_t n = f->ring_count[slot];
    if (n == 0) {
        f->ring_due[slot] = due;
        counters[C_OPENED] = 1;
    } else if (f->ring_due[slot] != due) {
        counters[C_ERR_VID] = slot;
        counters[C_ERR_ARG] = due;
        return ERR_RING_CONFLICT;
    }
    if (n >= f->ring_cap) {
        counters[C_ERR_VID] = slot;
        counters[C_ERR_ARG] = due;
        return ERR_RING_OVERFLOW;
    }
    int64_t entry = slot * f->ring_cap + n;
    f->ring[entry] = target << 2 | flags;
    f->ring_pkt[entry] = handle;
    f->ring_count[slot] = n + 1;
    return 0;
}

/* Router._send_flit without a tracer; DiscoRouter._on_first_flit_sent
 * becomes EV_ABORT.  A link send goes into the arrival ring and makes an
 * event only for an abort, or for a tail whose VC holds an engine job
 * (the caller unlinks it); every ejected flit makes one. */
static int64_t send_flit(const fabric *f, int64_t node, int64_t i, int64_t now,
                         int64_t *events, int64_t *n_ev, int64_t *counters)
{
    int64_t code = EV_SEND;
    if (f->flits_sent[i] == 0 && f->engine_vc[i] == ENGINE_ABORTABLE) {
        f->engine_vc[i] = ENGINE_IDLE;
        code |= EV_ABORT;
    }
    f->flits_present[i]--;
    int64_t sent = ++f->flits_sent[i];
    counters[C_SENDS]++;
    int64_t handle = f->pkt_id[i];
    int tail = sent == f->pkt_size[handle];
    if (f->out_port[i] == PORT_LOCAL) {
        f->eject_tokens[node]--;
        emit(events, n_ev, code | EV_EJECT | (tail ? EV_TAIL : 0), i, handle);
    } else {
        int64_t target = f->out_vc[i];
        f->incoming[target]++;
        counters[C_LINK_FLITS]++;
        int64_t err = schedule(f, now, handle, target,
                               (sent == 1 ? RING_HEAD : 0)
                               | (tail ? RING_TAIL : 0), counters);
        if (err)
            return err;
        if (tail && f->engine_vc[i] != ENGINE_IDLE)
            code |= EV_TAIL;
        if (code != EV_SEND)
            emit(events, n_ev, code, i, handle);
    }
    if (tail) {
        if (f->flits_present[i] != 0) {
            counters[C_ERR_VID] = i;
            return ERR_TAIL_BUFFERED;
        }
        /* InputVC.release. */
        f->pkt_id[i] = -1;
        f->state[i] = VC_IDLE;
        f->flits_received[i] = 0;
        f->flits_sent[i] = 0;
        f->out_port[i] = -1;
        f->out_vc_class[i] = -1;
        f->out_vc[i] = -1;
        f->wait_cycles[i] = 0;
        f->engine_vc[i] = ENGINE_IDLE;
    }
    return 0;
}

/* The arbitrator's candidates of one router tick, in the order
 * DiscoRouter hands them over: SA losers (output ports ascending), then
 * SA-blocked VCs, then VA-blocked VCs. */
typedef struct {
    int64_t vid[MAX_ROUTER_VCS];
    int64_t n;     /* all of them */
    int64_t n_sa;  /* the SA losers and blocked VCs, vid[0..n_sa) */
} candidates;

/* Router._switch_allocation: per output port in ascending order, the
 * highest pkt_prio wins, round robin among equals (Router._arbitrate);
 * one winner per input port. */
static int64_t switch_allocation(const fabric *f, int64_t node, int64_t now,
                                 const int64_t *sa, int64_t n_sa,
                                 int64_t *events, int64_t *n_ev,
                                 int64_t *counters, candidates *cand)
{
    const int64_t lo = f->vc_base[node];
    const int64_t radix = f->radix[node];
    const int64_t vpp = f->vcs_per_port;
    const int64_t depth = f->depth;
    const int eject_ok = f->eject_tokens[node] > 0;
    int64_t req[MAX_ROUTER_VCS], blocked[MAX_ROUTER_VCS];
    int64_t n_req = 0, n_blocked = 0;
    uint64_t ports = 0;

    for (int64_t k = 0; k < n_sa; k++) {
        int64_t i = sa[k];
        int64_t out = f->out_port[i];
        int ok;
        if (f->engine_vc[i] == ENGINE_LOCKED) {
            ok = 0; /* DiscoRouter._can_send: the shadow is locked */
        } else if (f->wedged_until[i] > now) {
            ok = 0; /* fault-injected wedge */
        } else if (f->saf
                   && f->flits_received[i] < f->pkt_size[f->pkt_id[i]]) {
            ok = 0;
        } else if (out == PORT_LOCAL) {
            ok = eject_ok;
        } else {
            int64_t t = f->out_vc[i];
            ok = depth - f->flits_present[t] - f->incoming[t]
                 - f->credit_debt[t] > 0;
        }
        if (!ok) {
            f->wait_cycles[i]++;
            blocked[n_blocked++] = i;
        } else {
            req[n_req++] = i;
            ports |= (uint64_t)1 << out;
        }
    }

    const int64_t stride = f->rr_stride;
    const int64_t span = stride * (radix > 8 ? radix : 8);
    int64_t *rr = f->sa_rr + f->port_base[node];
    int64_t winners[64];
    int64_t n_win = 0;
    uint64_t used = 0;
    for (int64_t out = 0; out < radix; out++) {
        if (!((ports >> out) & 1))
            continue;
        int64_t pointer = rr[out];
        int64_t best = -1, best_key = 0, best_dist = 0, best_prio = 0;
        for (int64_t k = 0; k < n_req; k++) {
            int64_t i = req[k];
            if (f->out_port[i] != out)
                continue;
            int64_t local = i - lo;
            int64_t in_port = local / vpp;
            if ((used >> in_port) & 1)
                continue;
            int64_t key = in_port * stride + local % vpp;
            int64_t dist = ((key - pointer) % span + span) % span;
            int64_t prio = f->pkt_prio[f->pkt_id[i]];
            if (best < 0 || prio > best_prio
                || (prio == best_prio && dist < best_dist)) {
                best = i;
                best_key = key;
                best_dist = dist;
                best_prio = prio;
            }
        }
        if (best >= 0) {
            used |= (uint64_t)1 << ((best - lo) / vpp);
            winners[n_win++] = best;
            rr[out] = (best_key + 1) % span;
        }
        for (int64_t k = 0; k < n_req; k++) {
            int64_t i = req[k];
            if (f->out_port[i] == out && i != best) {
                f->wait_cycles[i]++;
                counters[C_SA_LOSSES]++;
                cand->vid[cand->n++] = i;
            }
        }
    }
    for (int64_t k = 0; k < n_blocked; k++)
        cand->vid[cand->n++] = blocked[k];
    cand->n_sa = cand->n;
    for (int64_t w = 0; w < n_win; w++) {
        int64_t err = send_flit(f, node, winners[w], now, events, n_ev,
                                counters);
        if (err)
            return err;
    }
    return 0;
}

/* Router._vc_allocation against the neighbour's input-port VCs. */
static int64_t vc_allocation(const fabric *f, int64_t node,
                             const int64_t *va, int64_t n_va,
                             int64_t *counters, candidates *cand)
{
    const int64_t vpp = f->vcs_per_port;
    const int64_t depth = f->depth;
    const int64_t pbase = f->port_base[node];
    for (int64_t k = 0; k < n_va; k++) {
        int64_t i = va[k];
        int64_t out = f->out_port[i];
        if (out == PORT_LOCAL) {
            f->state[i] = VC_ACTIVE;
            counters[C_VA_GRANTS]++;
            continue;
        }
        int64_t handle = f->pkt_id[i];
        int64_t size = f->pkt_size[handle];
        if (f->whole_packet && size > depth) {
            counters[C_ERR_VID] = i;
            return ERR_PACKET_TOO_BIG;
        }
        int64_t base = f->down_vid[pbase + out];
        if (base < 0) {
            counters[C_ERR_VID] = i;
            return ERR_NO_NEIGHBOR;
        }
        int64_t cls = f->out_vc_class[i];
        int64_t ci = cls == -1 ? 0 : (cls == 0 ? 1 : 2);
        uint64_t mask = (uint64_t)f->va_mask[f->pkt_vnet[handle] * 3 + ci];
        int64_t target = -1;
        for (int64_t v = 0; v < vpp; v++) {
            if (!((mask >> v) & 1))
                continue;
            int64_t c = base + v;
            if (f->state[c] != VC_IDLE || f->reserved[c] || f->incoming[c])
                continue;
            if (f->whole_packet) {
                int64_t slots = depth - f->flits_present[c] - f->incoming[c]
                                - f->credit_debt[c];
                if ((slots > 0 ? slots : 0) < size)
                    continue;
            }
            target = c;
            break;
        }
        if (target < 0) {
            f->wait_cycles[i]++;
            cand->vid[cand->n++] = i;
            continue;
        }
        f->reserved[target] = 1;
        f->out_vc[i] = target;
        f->state[i] = VC_ACTIVE;
        counters[C_VA_GRANTS]++;
    }
    return 0;
}

/*
 * Whether DiscoRouter.post_tick may act after this tick: the engine holds
 * a job, or some candidate passes everything DiscoArbitrator.consider and
 * DiscoCompressorEngine.can_accept test short of the confidence
 * threshold.  It may say yes needlessly, never no wrongly.
 */
static int needs_post_tick(const fabric *f, int64_t node,
                           const candidates *cand)
{
    if (f->engine_jobs[node] > 0)
        return 1;
    if (f->engine_cap[node] <= 0)
        return 0; /* a plain router */
    /* No job held, so the engine has room (engine_jobs < engine_cap). */
    for (int64_t k = 0; k < cand->n; k++) {
        int64_t i = cand->vid[k];
        if (f->pkt_cand[f->pkt_id[i]] && f->out_port[i] >= 0
            && f->flits_sent[i] == 0)
            return 1;
    }
    return 0;
}

/* Router.tick: partition the VCs by stage, then SA/ST, VA, RC.  Returns
 * 1 when the router needs DiscoRouter.post_tick: its candidates are in
 * the event buffer and its RC events start at counters[C_RC_START]. */
static int64_t tick(const fabric *f, int64_t node, int64_t now,
                    int64_t *events, int64_t *n_ev, int64_t *counters)
{
    const int64_t lo = f->vc_base[node];
    const int64_t hi = lo + f->radix[node] * f->vcs_per_port;
    int64_t sa[MAX_ROUTER_VCS], va[MAX_ROUTER_VCS], rc[MAX_ROUTER_VCS];
    int64_t n_sa = 0, n_va = 0, n_rc = 0;
    candidates cand;
    cand.n = cand.n_sa = 0;
    for (int64_t i = lo; i < hi; i++) {
        int64_t s = f->state[i];
        if (s == VC_ACTIVE) {
            if (f->flits_present[i])
                sa[n_sa++] = i;
        } else if (s == VC_VA) {
            va[n_va++] = i;
        } else if (s == VC_ROUTING) {
            rc[n_rc++] = i;
        }
    }
    if (n_sa) {
        int64_t err = switch_allocation(f, node, now, sa, n_sa, events, n_ev,
                                        counters, &cand);
        if (err)
            return err;
    }
    if (n_va) {
        int64_t err = vc_allocation(f, node, va, n_va, counters, &cand);
        if (err)
            return err;
    }
    int post = needs_post_tick(f, node, &cand);
    if (post) {
        /* DiscoRouter.post_tick runs this router's RC itself, after the
         * arbitrator has read every out_port. */
        for (int64_t k = 0; k < cand.n_sa; k++)
            emit(events, n_ev, EV_CANDIDATE, cand.vid[k], -1);
        counters[C_RC_START] = *n_ev;
        for (int64_t k = 0; k < n_rc; k++)
            emit(events, n_ev, EV_ROUTE, rc[k], -1);
        return post;
    }
    /* Router._route_computation from the route table; a miss goes to
     * Python (routing stays pluggable), which fills the entry. */
    const int64_t *row = f->route + node * f->n_nodes;
    for (int64_t k = 0; k < n_rc; k++) {
        int64_t i = rc[k];
        int64_t packed = row[f->pkt_dst[f->pkt_id[i]]];
        if (packed == ROUTE_MISS) {
            emit(events, n_ev, EV_ROUTE, i, -1);
            continue;
        }
        f->out_port[i] = packed >> 2;
        f->out_vc_class[i] = (packed & 3) - 1;
        f->state[i] = VC_VA;
    }
    return post;
}

/*
 * Sweep the routers listed in nodes[start..n_nodes) (start = args[A_START],
 * n_nodes = args[A_N]) at cycle args[A_NOW], in order, each
 * exactly as the kernel's default visit would: skipped when idle, ticked
 * otherwise.  busy[] gets, in order, the index k of every router that
 * ticked and still has work afterwards (the kernel re-arms it for the
 * next cycle); counters[C_BUSY] counts them.  Returns the number of event
 * triples written, or a negative ERR_* code with counters[C_ERR_VID]
 * naming the VC (the router, for ERR_ROUTER_TOO_BIG).
 *
 * The call stops early, with counters[C_YIELD] = k, right after a DISCO
 * router k whose arbitrator or engine may act this cycle; k is not in
 * busy[].  The caller replays the events, runs post_tick, takes has_work
 * itself and resumes at start = k + 1.  Stopping is required, not a
 * convenience: an engine completion changes flits_present, which later
 * routers read as credit in the same cycle.
 */
int64_t repro_sweep(const int64_t *desc, const int64_t *args)
{
    fabric f;
    unpack(desc, &f);
    const int64_t *nodes = ptr(desc, D_NODES);
    int64_t *busy = ptr(desc, D_BUSY);
    int64_t *events = ptr(desc, D_EVENTS);
    int64_t *counters = ptr(desc, D_COUNTERS);
    const int64_t now = args[A_NOW];
    const int64_t start = args[A_START];
    const int64_t n_nodes = args[A_N];
    for (int k = 0; k < C_LEN; k++)
        counters[k] = 0;
    counters[C_YIELD] = -1;
    int64_t n_ev = 0, n_busy = 0;
    for (int64_t k = start; k < n_nodes; k++) {
        int64_t node = nodes[k];
        int64_t lo = f.vc_base[node];
        int64_t hi = lo + f.radix[node] * f.vcs_per_port;
        if (hi - lo > MAX_ROUTER_VCS) {
            counters[C_ERR_VID] = node;
            counters[C_ERR_ARG] = hi - lo;
            return ERR_ROUTER_TOO_BIG;
        }
        if (!has_work(&f, node, lo, hi))
            continue;
        counters[C_TICKED]++;
        if (f.engine_cap[node] > 0)
            counters[C_DISCO_TICKED]++;
        int64_t post = tick(&f, node, now, events, &n_ev, counters);
        if (post < 0)
            return post;
        if (post) {
            counters[C_YIELD] = k;
            break;
        }
        if (has_work(&f, node, lo, hi))
            busy[n_busy++] = k;
    }
    counters[C_BUSY] = n_busy;
    return n_ev;
}

/*
 * Land ring slot args[A_SLOT]: InputVC.accept_flit for every flit in it,
 * in arrival order; a head binds its packet's handle and counts a hop.
 * Writes each distinct target node to landed[], in first-arrival order,
 * and empties the slot.  Returns the number of nodes, or
 * ERR_VC_COLLISION with counters[C_ERR_VID] naming the VC a head landed
 * on while it was still bound.
 */
int64_t repro_land(const int64_t *desc, const int64_t *args)
{
    fabric f;
    unpack(desc, &f);
    int64_t *nodes = ptr(desc, D_LANDED);
    int64_t *counters = ptr(desc, D_COUNTERS);
    const int64_t slot = args[A_SLOT];
    const int64_t base = slot * f.ring_cap;
    int64_t n = f.ring_count[slot];
    int64_t n_nodes = 0;
    for (int64_t k = 0; k < n; k++) {
        int64_t entry = f.ring[base + k];
        int64_t i = entry >> 2;
        int64_t handle = f.ring_pkt[base + k];
        int head = entry & RING_HEAD;
        if (accept_flit(&f, i, handle, head, counters)) {
            n = ERR_VC_COLLISION;
            break;
        }
        if (head)
            f.pkt_hops[handle]++;
        int64_t node = f.vc_node[i];
        if (!f.land_mark[node]) {
            f.land_mark[node] = 1;
            nodes[n_nodes++] = node;
        }
    }
    for (int64_t k = 0; k < n_nodes; k++)
        f.land_mark[nodes[k]] = 0;
    if (n < 0)
        return n;
    f.ring_count[slot] = 0;
    f.ring_due[slot] = -1;
    return n_nodes;
}

/* NetworkInterface.has_work. */
static int ni_has_work(const fabric *f, int64_t node)
{
    if (f->ni_deliver[node] >= 0)
        return 1;
    for (int64_t q = node * f->vnets; q < (node + 1) * f->vnets; q++) {
        if (f->ni_vid[q] >= 0 || f->ni_head[q] >= 0)
            return 1;
    }
    return 0;
}

/* NetworkInterface._advance_stream for vnet `vnet` of `node` (queue q),
 * _start_stream included: open a stream for a ready queue head on the
 * first free local VC its vnet may use, then send one flit when the VC
 * has room.  Sets *popped when the head left the queue, *woke when the
 * local router has something new. */
static int64_t advance_stream(const fabric *f, int64_t node, int64_t vnet,
                              int64_t q, int64_t now, int *popped, int *woke,
                              int64_t *counters)
{
    int64_t vid = f->ni_vid[q];
    if (vid < 0) {
        int64_t head = f->ni_head[q];
        if (head < 0 || f->ni_ready[q] > now)
            return 0;
        /* _allocate_local_vc: input port PORT_LOCAL, the vnet's VCs. */
        uint64_t mask = (uint64_t)f->va_mask[vnet * 3];
        int64_t base = f->vc_base[node];
        for (int64_t v = 0; v < f->vcs_per_port; v++) {
            int64_t c = base + v;
            if (((mask >> v) & 1) && f->pkt_id[c] < 0 && !f->reserved[c]
                && f->incoming[c] == 0) {
                vid = c;
                break;
            }
        }
        if (vid < 0)
            return 0;
        f->ni_head[q] = -1;
        *popped = 1;
        f->reserved[vid] = 1;
        *woke = 1;
        f->ni_vid[q] = vid;
        f->ni_pkt[q] = head;
        f->ni_sent[q] = 0;
    }
    if (f->depth - f->flits_present[vid] <= 0)
        return 0;
    int64_t handle = f->ni_pkt[q];
    int64_t sent = f->ni_sent[q];
    int64_t err = accept_flit(f, vid, handle, sent == 0, counters);
    if (err)
        return err;
    *woke = 1;
    counters[C_INJECTED]++;
    if (++sent == f->pkt_size[handle]) {
        f->ni_vid[q] = -1;
        f->ni_pkt[q] = -1;
        f->ni_sent[q] = 0;
    } else {
        f->ni_sent[q] = sent;
    }
    return 0;
}

/* NetworkInterface.next_wake after a visit: now + 1 while a stream is
 * open or something is due, else the earliest ready cycle, -2 to sleep
 * until woken. */
static int64_t ni_next_wake(const fabric *f, int64_t node, int64_t now)
{
    int64_t best = -2;
    for (int64_t q = node * f->vnets; q < (node + 1) * f->vnets; q++) {
        if (f->ni_vid[q] >= 0)
            return now + 1;
        if (f->ni_head[q] >= 0) {
            int64_t ready = f->ni_ready[q];
            if (ready <= now)
                return now + 1;
            if (best < 0 || ready < best)
                best = ready;
        }
    }
    int64_t ready = f->ni_deliver[node];
    if (ready >= 0) {
        if (ready <= now)
            return now + 1;
        if (best < 0 || ready < best)
            best = ready;
    }
    return best;
}

/*
 * Visit the NIs listed in nodes[start..n_nodes) (as for repro_sweep) at
 * cycle args[A_NOW], in order, exactly as the
 * kernel's default visit of NetworkInterface would: skipped when idle,
 * ticked otherwise, then re-armed from next_wake.  Writes, in visit
 * order: woken[], each node whose local router must be woken; popped[],
 * each queue q = node * vnets + vnet whose head went into a stream (the
 * caller refills it from its deque); rearm[], (k, cycle) pairs of the
 * NIs to re-arm, cycle REARM_DEFER when the NI popped a head and has no
 * stream open (its next wake depends on the refill).  Returns 0, or a
 * negative ERR_* code.
 *
 * The call stops, with counters[C_YIELD] = k, at a ticked NI k whose
 * earliest pending delivery is due: the caller runs its deliveries and
 * resumes at start = k with args[A_RESUMED] set (NI k is counted and
 * must not stop again).
 */
int64_t repro_inject(const int64_t *desc, const int64_t *args)
{
    fabric f;
    unpack(desc, &f);
    const int64_t *nodes = ptr(desc, D_NODES);
    int64_t *woken = ptr(desc, D_WOKEN);
    int64_t *popped = ptr(desc, D_POPPED);
    int64_t *rearm = ptr(desc, D_REARM);
    int64_t *counters = ptr(desc, D_COUNTERS);
    const int64_t now = args[A_NOW];
    const int64_t start = args[A_START];
    const int64_t n_nodes = args[A_N];
    const int64_t resumed = args[A_RESUMED];
    for (int k = 0; k < C_LEN; k++)
        counters[k] = 0;
    counters[C_YIELD] = -1;
    int64_t n_woken = 0, n_popped = 0, n_rearm = 0;
    for (int64_t k = start; k < n_nodes; k++) {
        int64_t node = nodes[k];
        if (!(resumed && k == start)) {
            if (!ni_has_work(&f, node))
                continue;
            counters[C_TICKED]++;
            int64_t due = f.ni_deliver[node];
            if (due >= 0 && due <= now) {
                counters[C_YIELD] = k;
                break;
            }
        }
        int any_popped = 0, woke = 0;
        for (int64_t vnet = 0; vnet < f.vnets; vnet++) {
            int64_t q = node * f.vnets + vnet;
            int pop = 0;
            int64_t err = advance_stream(&f, node, vnet, q, now, &pop, &woke,
                                         counters);
            if (err)
                return err;
            if (pop) {
                popped[n_popped++] = q;
                any_popped = 1;
            }
        }
        if (woke)
            woken[n_woken++] = node;
        int64_t next = ni_next_wake(&f, node, now);
        if (any_popped && next != now + 1)
            next = REARM_DEFER;
        if (next != -2) {
            rearm[2 * n_rearm] = k;
            rearm[2 * n_rearm + 1] = next;
            n_rearm++;
        }
    }
    counters[C_WOKEN] = n_woken;
    counters[C_POPPED] = n_popped;
    counters[C_REARM] = n_rearm;
    return 0;
}
