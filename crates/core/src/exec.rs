//! The datapath and the event scheduler.
//!
//! A transaction's life is four per-node events, handled here as ordinary
//! `&mut World` methods:
//!
//! * `Hop` — a message at one router: forward it, or deliver it to the
//!   server RMC (a request: DRAM access, coherent snoops) or the client RMC
//!   (a response: completion);
//! * `MemDone` — the home DRAM finished: inject the response;
//! * `ThreadWake` — a traffic thread offers its next access;
//! * `Timeout` — a loss-recovery timer: retransmit, or give the home up.
//!
//! Each runs on the *lane* of the node it touches. The whole-world events
//! (`Sample`, `Fault`, `Suspect`, `Manager`) and the drivers live in
//! `crate::world`; every event, from anywhere, is scheduled through
//! [`World::sched`] — except that a blocking transaction that finds
//! nothing else pending runs as a direct chain of the `Hop` and `MemDone`
//! handlers ([`World::run_alone`]) with the queue path's bookkeeping:
//! there each handler returns its one successor instead of scheduling it.
//!
//! ## Content-determined event keys
//!
//! Events at the same instant pop in the order of their *key*, which is a
//! pure function of the computation that scheduled them — never of the
//! queue's insertion order. That fixes the tie order of same-instant events
//! (and with it every report byte) independently of how the handlers
//! happen to interleave their `schedule` calls; switching to plain
//! insertion order would reorder same-instant events and change report
//! bytes. [`make_key`] packs, from most to least significant:
//!
//! ```text
//! [ lane:16 | gen:8 | parent lane:16 | parent index:48 | child ordinal:16 ]
//! ```
//!
//! * `lane` — the node that will process the event (`0` for globals), so at
//!   one instant all global events sort before all lane events, and lanes
//!   sort by node id.
//! * `gen` — same-instant causality depth: an event scheduled at its
//!   parent's own instant *on the parent's own lane* carries `parent gen +
//!   1`, so it sorts after the parent's siblings of the same generation.
//! * `parent lane`/`parent index` — which event scheduled this one: the
//!   parent's lane and its per-lane execution ordinal (or `0`/a global
//!   sequence number for setup- and global-context scheduling).
//! * `child ordinal` — position among the parent's same-call children.
//!
//! Which form a schedule takes is read from the world's [`Cursor`]:
//! `World::handle` opens it before a lane event and closes it after.

use crate::config::ClusterConfig;
use crate::world::{CohState, Ev, Owner, PendingTx, Thread, World};
use cohfree_fabric::{Fabric, Message, MsgKind, NodeId, Step};
use cohfree_rmc::{Completion, Submit};
use cohfree_sim::span::Phase;
use cohfree_sim::{SimDuration, SimTime};

/// Lane number of global (whole-world) events; sorts before every node lane.
pub(crate) const GLOBAL_LANE: u16 = 0;

/// Pack a content-determined event ordering key (see the module docs).
#[inline]
pub(crate) fn make_key(lane: u16, gen: u8, parent_lane: u16, parent_idx: u64, child: u16) -> u128 {
    debug_assert!(parent_idx < 1 << 48, "per-lane execution ordinal overflow");
    ((lane as u128) << 88)
        | ((gen as u128) << 80)
        | ((parent_lane as u128) << 64)
        | ((parent_idx as u128) << 16)
        | child as u128
}

/// The processing lane encoded in a key.
#[inline]
pub(crate) fn key_lane(key: u128) -> u16 {
    (key >> 88) as u16
}

/// The same-instant causality generation encoded in a key.
#[inline]
pub(crate) fn key_gen(key: u128) -> u8 {
    (key >> 80) as u8
}

/// The largest single loss-recovery backoff delay: one simulated second.
///
/// Real recovery stacks cap their exponential backoff at a maximum delay;
/// here the ceiling also keeps absolute timer *instants* representable. The
/// clock counts picoseconds in a `u64` (~213 simulated days), so an uncapped
/// exponential — default 30 µs timeout doubled a few dozen times — reaches
/// per-retry delays of ~2e18 ps and walks the clock to `SimTime::MAX` within
/// tens of retries, after which the retransmission path does arithmetic on a
/// saturated clock. At 1 s per retry, even a million-retry budget sums to
/// well inside the clock's range.
pub(crate) const BACKOFF_CEILING: SimDuration = SimDuration::secs(1);

/// Exponential loss-recovery backoff for the `attempt`-th retry of the
/// transaction tagged `tag`:
/// `min(timeout * 2^min(attempt, backoff_cap) * (1 + j), BACKOFF_CEILING)`
/// where `j ∈ [0, retry_jitter)` is a deterministic per-(tag, attempt)
/// fraction. The shift is clamped and the multiply saturates so a retry
/// budget of 64+ cannot wrap the delay to (near) zero and hot-spin the
/// event queue, and the absolute ceiling keeps timer instants finite (see
/// [`BACKOFF_CEILING`]).
///
/// The jitter is a pure function of `(cluster seed, tag, attempt)`, so a
/// seed reproduces it byte-identically. Tags encode the issuing node in
/// their high bits, so clients whose retries a shared outage synchronized
/// spread back out instead of re-saturating the restored fabric in one
/// wave.
#[inline]
pub(crate) fn backoff_delay(cfg: &ClusterConfig, tag: u64, attempt: u32) -> SimDuration {
    let shift = attempt.min(cfg.recovery.backoff_cap).min(63);
    let base = cfg.rmc.timeout.saturating_mul(1u64 << shift);
    let jitter = cfg.recovery.retry_jitter;
    if jitter <= 0.0 {
        return base.min(BACKOFF_CEILING);
    }
    // SplitMix64-style scramble of (seed, tag, attempt) -> fraction in [0,1).
    let mut h = cfg
        .seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((attempt as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
    let extra = SimDuration::ns_f64(base.min(BACKOFF_CEILING).as_ns_f64() * jitter * frac);
    (base.min(BACKOFF_CEILING) + extra).min(BACKOFF_CEILING)
}

/// Delay between a requester exhausting its retry budget and the suspect
/// declaration taking effect cluster-wide ([`Ev::Suspect`]): one minimum
/// fabric hop latency, so the declaration is a strictly-future global event
/// (1 ns on a zero-latency fabric).
#[inline]
pub(crate) fn suspect_delay(fabric: &Fabric) -> SimDuration {
    let w = fabric.min_hop_latency();
    if w.is_zero() {
        SimDuration::ns(1)
    } else {
        w
    }
}

/// The lane event being handled, from which its children's keys derive.
/// `lane == GLOBAL_LANE` means no lane event is running: setup, a driver,
/// or a global event is scheduling.
#[derive(Default)]
pub(crate) struct Cursor {
    now: SimTime,
    lane: u16,
    gen: u8,
    key: u128,
    /// Per-lane execution ordinal of the running event.
    idx: u64,
    /// Children scheduled by the running event so far.
    child: u16,
}

impl World {
    /// The node lane that processes `ev` (0 = global).
    fn lane_of(&self, ev: &Ev) -> u16 {
        match ev {
            Ev::Hop { at, .. } => at.get(),
            Ev::MemDone { msg, .. } => msg.dst.get(),
            Ev::ThreadWake { id } => self.threads[*id].spec.node.get(),
            Ev::Timeout { tag, .. } => (tag >> 48) as u16,
            Ev::Sample | Ev::Fault(_) | Ev::Suspect { .. } | Ev::Manager => GLOBAL_LANE,
        }
    }

    /// Schedule `ev` at `at` under its content-determined key (module
    /// docs): inside a lane event the key names the running event as
    /// parent; anywhere else it carries the next global sequence number.
    pub(crate) fn sched(&mut self, at: SimTime, ev: Ev) {
        let lane = self.lane_of(&ev);
        let cur = &mut self.cursor;
        let key = if cur.lane == GLOBAL_LANE {
            let key = make_key(lane, 0, 0, self.gseq, 0);
            self.gseq += 1;
            key
        } else {
            let gen = if at == cur.now && lane == cur.lane {
                debug_assert!(cur.gen < u8::MAX, "same-instant causality too deep");
                cur.gen.wrapping_add(1)
            } else {
                0
            };
            let key = make_key(lane, gen, cur.lane, cur.idx, cur.child);
            cur.child += 1;
            // The canonical order must be executable: a same-instant child
            // may never sort before the event that scheduled it.
            debug_assert!(
                at > cur.now || key > cur.key,
                "same-instant event scheduled into the past of the canonical order"
            );
            key
        };
        self.queue.schedule_keyed(at, key, ev);
    }

    /// Open the cursor for the lane event keyed `key` popped at `now`,
    /// advancing its lane's execution ordinal (also for events that turn
    /// out to be dropped at a dead node).
    pub(crate) fn open_cursor(&mut self, now: SimTime, key: u128) {
        let lane = key_lane(key);
        let idx = &mut self.exec_counts[lane as usize - 1];
        self.cursor = Cursor {
            now,
            lane,
            gen: key_gen(key),
            key,
            idx: *idx,
            child: 0,
        };
        *idx += 1;
    }

    /// Close the cursor: later schedules are global-context again.
    pub(crate) fn close_cursor(&mut self) {
        self.cursor.lane = GLOBAL_LANE;
    }

    /// [`Ev::Hop`]: `msg` is at router `at`. The hop's one successor (the
    /// next hop, or the home DRAM's completion of a request) goes through
    /// [`World::successor`]; the coherent choreography and a completion's
    /// owner schedule their own follow-ups.
    pub(crate) fn hop<const ALONE: bool>(
        &mut self,
        now: SimTime,
        msg: Message,
        at: NodeId,
    ) -> Option<(SimTime, Ev)> {
        let (step, queued) = self.fabric.step_traced(now, at, &msg);
        match step {
            Step::Forward { next, arrive } => {
                self.trace_hop(&msg, at, now, arrive, queued);
                self.successor::<ALONE>(arrive, Ev::Hop { msg, at: next })
            }
            // Lost on a link; the requester's timeout recovers it.
            Step::Dropped => None,
            Step::Deliver { at: t } => match msg.kind {
                // --- coherent-DSM baseline choreography ---
                MsgKind::ProbeReq => {
                    let (resp, inject_at) = self.nodes[msg.dst.index()].server.on_probe(t, &msg);
                    self.sched(
                        inject_at,
                        Ev::Hop {
                            msg: resp,
                            at: resp.src,
                        },
                    );
                    None
                }
                MsgKind::ProbeResp => {
                    let done = self.nodes[msg.dst.index()].server.on_probe_response(t);
                    let st = self
                        .coh
                        .get_mut(&msg.tag)
                        .expect("probe response for unknown coherent transaction");
                    st.awaiting_probes -= 1;
                    self.try_finish_coherent(msg.tag, done);
                    None
                }
                MsgKind::CohReadReq { .. } => {
                    let home = msg.dst;
                    let node = &mut self.nodes[home.index()];
                    let issue = node.server.on_request(t, &msg);
                    let done = node
                        .mem
                        .access(issue.issue_at, issue.local_addr, issue.bytes);
                    self.sched(done, Ev::MemDone { msg, arrived: t });
                    // Broadcast snoops to every other domain member.
                    let members: Vec<NodeId> = self
                        .coherent_domain
                        .iter()
                        .copied()
                        .filter(|&m| m != home && m != msg.src)
                        .collect();
                    self.coh.insert(
                        msg.tag,
                        CohState {
                            awaiting_probes: members.len(),
                            mem_done: None,
                            req: msg,
                            arrived: t,
                        },
                    );
                    for m in members {
                        let probe =
                            Message::with_addr(home, m, MsgKind::ProbeReq, msg.tag, msg.addr);
                        self.sched(
                            issue.issue_at,
                            Ev::Hop {
                                msg: probe,
                                at: home,
                            },
                        );
                    }
                    None
                }
                // --- ordinary (non-coherent) paths ---
                _ if msg.kind.is_response() => {
                    // None = duplicate response under loss recovery.
                    if let Some(comp) = self.nodes[msg.dst.index()].client.on_response(t, &msg) {
                        if self.trace.enabled() {
                            let node = msg.dst.get();
                            let svc_start = comp.done_at - self.cfg.rmc.proc_time;
                            self.trace
                                .push(comp.tag, Phase::ClientQueue, node, t, svc_start);
                            self.trace.push(
                                comp.tag,
                                Phase::Reply,
                                node,
                                svc_start.max(t),
                                comp.done_at,
                            );
                        }
                        self.complete(comp);
                    }
                    None
                }
                _ => {
                    let home = msg.dst;
                    let node = &mut self.nodes[home.index()];
                    let issue = node.server.on_request(t, &msg);
                    let done = node
                        .mem
                        .access(issue.issue_at, issue.local_addr, issue.bytes);
                    if self.trace.enabled() {
                        let svc_start = issue.issue_at - self.cfg.rmc.server_proc_time;
                        self.trace
                            .push(msg.tag, Phase::ServerQueue, home.get(), t, svc_start);
                        self.trace.push(
                            msg.tag,
                            Phase::Service,
                            home.get(),
                            svc_start.max(t),
                            done,
                        );
                    }
                    self.successor::<ALONE>(done, Ev::MemDone { msg, arrived: t })
                }
            },
        }
    }

    /// [`Ev::MemDone`]: the home DRAM finished serving `msg`. The
    /// response's first hop goes through [`World::successor`]; a coherent
    /// read schedules its own once every snoop is in.
    pub(crate) fn mem_done<const ALONE: bool>(
        &mut self,
        now: SimTime,
        msg: Message,
        arrived: SimTime,
    ) -> Option<(SimTime, Ev)> {
        if matches!(msg.kind, MsgKind::CohReadReq { .. }) {
            let st = self
                .coh
                .get_mut(&msg.tag)
                .expect("memory completion for unknown coherent transaction");
            st.mem_done = Some(now);
            self.try_finish_coherent(msg.tag, now);
            None
        } else {
            let (resp, inject_at) = self.nodes[msg.dst.index()]
                .server
                .on_mem_done(now, &msg, arrived);
            if self.trace.enabled() {
                let home = msg.dst.get();
                let svc_start = inject_at - self.cfg.rmc.server_proc_time;
                self.trace
                    .push(msg.tag, Phase::ServerQueue, home, now, svc_start);
                self.trace
                    .push(msg.tag, Phase::Reply, home, svc_start.max(now), inject_at);
            }
            self.successor::<ALONE>(
                inject_at,
                Ev::Hop {
                    msg: resp,
                    at: resp.src,
                },
            )
        }
    }

    /// Pass a datapath handler's one successor on: on the queue path
    /// schedule it and return `None`, exactly as the handler always did;
    /// in a lone chain (`ALONE`, [`World::run_alone`]) return it to be run
    /// next, without touching the queue.
    #[inline(always)]
    fn successor<const ALONE: bool>(&mut self, at: SimTime, ev: Ev) -> Option<(SimTime, Ev)> {
        if ALONE {
            Some((at, ev))
        } else {
            self.sched(at, ev);
            None
        }
    }

    /// Release a coherent response once both the DRAM read and every snoop
    /// response are in.
    fn try_finish_coherent(&mut self, tag: u64, now: SimTime) {
        let st = self.coh.get(&tag).expect("coherent state exists");
        if st.awaiting_probes != 0 || st.mem_done.is_none() {
            return;
        }
        let st = self.coh.remove(&tag).expect("checked above");
        let (resp, inject_at) = self.nodes[st.req.dst.index()]
            .server
            .on_mem_done(now, &st.req, st.arrived);
        self.sched(
            inject_at,
            Ev::Hop {
                msg: resp,
                at: resp.src,
            },
        );
    }

    /// The client RMC completed a transaction: tell its owner.
    fn complete(&mut self, comp: Completion) {
        self.trace.finish(comp.tag, comp.done_at, false);
        let owner = match self.pending.remove(&comp.tag) {
            Some(p) => p.owner,
            // A lone blocking transaction never enters `pending`
            // ([`World::launch`]); only its chain runs a hop with the
            // cursor closed ([`World::run_alone`]).
            None if self.cursor.lane == GLOBAL_LANE => Owner::Sync,
            None => panic!("completion for unowned tag {:#x}", comp.tag),
        };
        match owner {
            Owner::Thread(id) => {
                let th = &mut self.threads[id];
                th.completed += 1;
                // Serving threads record the end-to-end latency a user
                // sees: arrival (or first offer) to completion.
                if let Some(since) = th.inflight_since.take() {
                    if let Some(h) = th.latency.as_deref_mut() {
                        h.record(comp.done_at.since(since));
                    }
                }
                self.thread_resolved(comp.done_at, id);
            }
            Owner::Sync => self.sync_done = Some((comp.tag, comp.done_at)),
            Owner::Posted => {} // fire-and-forget acknowledged
        }
    }

    /// Thread `id` resolved one access at `now` (the caller has counted it
    /// as completed, failed or shed): finish the thread if that was its
    /// last, or wake it for the next.
    pub(crate) fn thread_resolved(&mut self, now: SimTime, id: usize) {
        let th = &mut self.threads[id];
        if th.resolved() == th.spec.accesses {
            th.finished = Some(now);
        } else {
            let wake = th.next_issue_at(now);
            self.sched(wake, Ev::ThreadWake { id });
        }
    }

    /// Whether messages can be lost, so every transaction carries a
    /// loss-recovery timer ([`World::arm_timeout`]).
    fn timers_armed(&self) -> bool {
        self.cfg.fabric.loss_rate > 0.0 || !self.cfg.faults.is_empty()
    }

    /// Arm the loss-recovery timer for `tag` if messages can be lost — a
    /// lossy fabric, or any fault plan (crashes and outages swallow traffic
    /// even over lossless links). The k-th retry backs off exponentially
    /// ([`backoff_delay`]).
    pub(crate) fn arm_timeout(&mut self, injected_at: SimTime, tag: u64, attempt: u32) {
        if self.timers_armed() {
            let delay = backoff_delay(&self.cfg, tag, attempt);
            self.sched(
                injected_at.saturating_add(delay),
                Ev::Timeout { tag, attempt },
            );
        }
    }

    /// [`Ev::Timeout`]: the loss-recovery timer of `tag`'s `attempt` fired.
    pub(crate) fn on_timeout(&mut self, now: SimTime, tag: u64, attempt: u32) {
        let Some(p) = self.pending.get_mut(&tag) else {
            return; // completed or aborted; stale timer
        };
        if p.attempt != attempt {
            return; // already retransmitted; a newer timer is armed
        }
        if p.attempt >= self.cfg.recovery.max_retries {
            // Retry budget exhausted: the home node is unresponsive. Failure
            // declaration touches cluster-wide state (directory, evacuation),
            // so it is deferred one minimum hop as a global event; the
            // pending transaction stays in place until the declaration sweeps
            // it up, keeping further timers stale-safe.
            let (observer, dead) = (p.msg.src, p.msg.dst);
            let at = now.saturating_add(suspect_delay(&self.fabric));
            self.sched(at, Ev::Suspect { observer, dead });
            return;
        }
        p.attempt += 1;
        let (msg, new_attempt) = (p.msg, p.attempt);
        let src = msg.src;
        let inject_at = self.nodes[src.index()].client.retransmit(now, tag);
        // The retransmit pass is loss-recovery work; the wait that led to this
        // timeout becomes Retry too, via gap-filling at finish().
        self.trace.push_attr(
            tag,
            Phase::Retry,
            src.get(),
            now,
            inject_at,
            Some(("attempt", new_attempt as u64)),
        );
        self.sched(inject_at, Ev::Hop { msg, at: src });
        self.arm_timeout(inject_at, tag, new_attempt);
    }

    /// [`Ev::ThreadWake`]: thread `id` offers its pending or next access.
    pub(crate) fn thread_step(&mut self, now: SimTime, id: usize) {
        // A wake-up for a thread that died (its node crashed) or already
        // finished (e.g. its last access failed) is stale.
        let th = &mut self.threads[id];
        let node = th.spec.node;
        if th.finished.is_some() || self.dead[node.index()] {
            return;
        }
        // Take the pending (NACKed or evacuated) access or generate a fresh one.
        let (dst, kind, addr) = if let Some(p) = th.pending.take() {
            p
        } else {
            if th.issued == th.spec.accesses {
                return; // nothing left to issue
            }
            th.next_access()
        };
        // The instant the access was *first* offered to the RMC — NACK
        // wake-ups re-offer the same access, and the serialization stall is
        // measured from the very first attempt.
        let first_offer = th.pending_since.take().unwrap_or(now);
        // Accesses into an evacuated zone follow it to its new home
        // (pre-evacuation NACKed pendings, pre-rewrite generated addresses).
        let (dst, addr) = self.evac_remap(node, addr).unwrap_or((dst, addr));
        let client = &mut self.nodes[node.index()].client;
        // An access aimed at a declared-failed home (no evacuation took it in)
        // fails instead of burning a retry budget each time.
        if client.is_suspect(dst) {
            self.trace.fail_fast(node.get(), now);
            let th = &mut self.threads[id];
            th.failed += 1;
            th.inflight_since = None;
            self.thread_resolved(now, id);
            return;
        }
        // Admission control: the recovery manager has load-shed this target.
        // Defer the access one manager tick instead of piling onto the
        // overload; the preserved `pending_since` keeps the deferral inside
        // the transaction's eventual Stall phase, and re-admission is
        // guaranteed because backlogs are time-to-drain values that decay.
        // Only global events (the manager) change the shed set.
        if client.is_shed(dst) {
            // Open-loop serving threads drop the request instead of deferring:
            // an arrival-driven client cannot hold back load, so shedding is a
            // terminal outcome (counted, never retried). Closed-loop threads
            // keep the defer-and-retry discipline.
            if !self.threads[id].arrivals.is_empty() {
                self.trace.fail_fast(node.get(), now);
                self.threads[id].shed += 1;
                self.thread_resolved(now, id);
                return;
            }
            client.note_shed_deferral();
            let th = &mut self.threads[id];
            th.pending = Some((dst, kind, addr));
            th.pending_since = Some(first_offer);
            let wake = now + self.cfg.manager.tick.max(SimDuration::ns(1));
            self.sched(wake, Ev::ThreadWake { id });
            return;
        }
        match client.submit(now, dst, kind, addr) {
            Submit::Accepted { msg, inject_at } => {
                let th = &mut self.threads[id];
                if th.latency.is_some() {
                    // End-to-end serving latency runs from the request's
                    // first offer (its arrival, for open-loop threads).
                    th.inflight_since = Some(first_offer);
                }
                let alone = self.launch(Owner::Thread(id), first_offer, now, msg, inject_at);
                debug_assert!(alone.is_none(), "only blocking drivers run alone");
            }
            Submit::Nacked { retry_at } => {
                let th = &mut self.threads[id];
                th.pending = Some((dst, kind, addr));
                th.pending_since = Some(first_offer);
                th.nack_retries += 1;
                self.sched(retry_at, Ev::ThreadWake { id });
            }
        }
    }

    /// Put a submission the client RMC accepted at `accepted_at` in flight
    /// for `owner`: record it as pending, open its trace, schedule its
    /// first hop and arm its loss-recovery timer. `first_offer` is when the
    /// core first wanted the access out (it may precede `accepted_at` by
    /// NACK rounds).
    ///
    /// A blocking (`Sync`) submission that runs alone — nothing else
    /// pending, no timer to arm, not a coherent read — is neither recorded
    /// nor scheduled: its first hop is returned for [`World::run_alone`],
    /// and only the global sequence number its schedule would have taken
    /// is spent. Within the chain only its completion would read the
    /// pending entry, and it knows the owner; the snapshot and the tracer
    /// never read the map.
    pub(crate) fn launch(
        &mut self,
        owner: Owner,
        first_offer: SimTime,
        accepted_at: SimTime,
        msg: Message,
        inject_at: SimTime,
    ) -> Option<(SimTime, Ev)> {
        self.trace_submitted(first_offer, accepted_at, &msg, inject_at);
        let first = Ev::Hop { msg, at: msg.src };
        if matches!(owner, Owner::Sync) && self.runs_alone(&msg) {
            debug_assert!(self.cursor.lane == GLOBAL_LANE, "drivers launch globally");
            self.gseq += 1;
            return Some((inject_at, first));
        }
        self.pending.insert(
            msg.tag,
            PendingTx {
                owner,
                msg,
                attempt: 0,
            },
        );
        self.sched(inject_at, first);
        self.arm_timeout(inject_at, msg.tag, 0);
        None
    }

    /// Whether a blocking transaction launching `msg` is alone in the
    /// world: nothing else is pending, no loss-recovery timer gets armed,
    /// and it is not a coherent read (whose home fans out snoops). Its
    /// events then form a closed chain — each hop and DRAM completion has
    /// exactly one successor until the completion, which has none.
    fn runs_alone(&self, msg: &Message) -> bool {
        #[cfg(test)]
        if self.force_queue {
            return false;
        }
        self.queue.is_empty()
            && !self.timers_armed()
            && !matches!(msg.kind, MsgKind::CohReadReq { .. })
    }

    /// Run a lone blocking transaction ([`World::runs_alone`]) from its
    /// first hop `ev` at `at` to completion as a direct chain of the
    /// datapath handlers, without the event queue; returns the instant the
    /// core observes the completion.
    ///
    /// The bookkeeping matches the queue path exactly, so every later key
    /// and every report byte is unchanged: each chained event advances its
    /// lane's execution ordinal (as [`World::open_cursor`] would), and the
    /// queue counts the chain's events and moves its clock to the last
    /// one. No key is built — no chained event ever meets another event —
    /// and no node is dead, since a world with faults arms timers.
    pub(crate) fn run_alone(&mut self, mut at: SimTime, mut ev: Ev) -> SimTime {
        let mut ran = 0;
        loop {
            ran += 1;
            let next = match ev {
                Ev::Hop { msg, at: node } => {
                    self.exec_counts[node.index()] += 1;
                    self.hop::<true>(at, msg, node)
                }
                Ev::MemDone { msg, arrived } => {
                    self.exec_counts[msg.dst.index()] += 1;
                    self.mem_done::<true>(at, msg, arrived)
                }
                _ => unreachable!("a lone transaction runs only hops and DRAM completions"),
            };
            debug_assert!(self.queue.is_empty(), "a lone chain event scheduled");
            let Some((t, e)) = next else { break };
            (at, ev) = (t, e);
        }
        self.queue.ran_outside(ran, at);
        let (_, done) = self
            .sync_done
            .take()
            .expect("blocking transaction lost (chain ended)");
        done
    }

    /// Open a trace for an accepted submission and attribute its stall,
    /// client-queue and issue phases.
    fn trace_submitted(
        &mut self,
        first_offer: SimTime,
        accepted_at: SimTime,
        msg: &Message,
        inject_at: SimTime,
    ) {
        if !self.trace.enabled() {
            return;
        }
        let node = msg.src.get();
        let tag = msg.tag;
        let svc_start = inject_at - self.cfg.rmc.proc_time;
        let trace = &mut self.trace;
        trace.begin(tag, node, first_offer);
        trace.push(tag, Phase::Stall, node, first_offer, accepted_at);
        trace.push(tag, Phase::ClientQueue, node, accepted_at, svc_start);
        trace.push(
            tag,
            Phase::Issue,
            node,
            svc_start.max(accepted_at),
            inject_at,
        );
    }

    /// Attribute one forwarded hop to its wire and fabric-queue phases.
    /// Probe traffic shares its parent's tag and is not part of the
    /// requester-observed critical path, so it is excluded.
    fn trace_hop(
        &mut self,
        msg: &Message,
        at: NodeId,
        now: SimTime,
        arrive: SimTime,
        queued: SimDuration,
    ) {
        if matches!(msg.kind, MsgKind::ProbeReq | MsgKind::ProbeResp) || !self.trace.enabled() {
            return;
        }
        let node = at.get();
        let tag = msg.tag;
        if queued.is_zero() {
            self.trace.push(tag, Phase::Wire, node, now, arrive);
        } else {
            // Router pass, FIFO wait on the link serializer, then
            // serialization + flight: three sub-intervals that tile the hop.
            let enq = now + self.cfg.fabric.router_delay;
            self.trace.push(tag, Phase::Wire, node, now, enq);
            self.trace
                .push(tag, Phase::FabricQueue, node, enq, enq + queued);
            self.trace
                .push(tag, Phase::Wire, node, enq + queued, arrive);
        }
    }
}

impl Thread {
    /// Generate the thread's next fresh access `(home, kind, addr)` and
    /// count it as issued.
    fn next_access(&mut self) -> (NodeId, MsgKind, u64) {
        self.issued += 1;
        // Open-loop serving threads stamp the request's scheduled arrival
        // as its first offer: wake-ups never run early (`next_issue_at`
        // clamps to the arrival), so on a backed-up lane the arrival
        // precedes `now` and the queueing delay lands in the stall phase
        // and the end-to-end latency.
        if let Some(&arrival) = self.arrivals.get((self.issued - 1) as usize) {
            self.pending_since = Some(arrival);
        }
        let bytes = self.spec.bytes as u64;
        let slots_of = |len: u64| (len / bytes).max(1);
        let zones = &self.spec.zones;
        // An offset into the combined slot space of all zones, resolved
        // against cumulative per-zone slot counts (zones may differ in
        // size): `(zone base, slot within the zone)`.
        let locate = |mut off: u64| {
            let mut zi = 0usize;
            while off >= slots_of(zones[zi].1) {
                off -= slots_of(zones[zi].1);
                zi += 1;
            }
            (zones[zi].0, off)
        };
        let (base, slot) = if self.sequential {
            // Walk all zones end-to-end in order, wrapping.
            let total: u64 = zones.iter().map(|&(_, l)| slots_of(l)).sum();
            locate((self.issued - 1) % total)
        } else if let Some(zipf) = &self.zipf {
            // Zipf rank over the combined slot space (rank 0 hottest).
            locate(zipf.sample(&mut self.rng) as u64)
        } else {
            let zi = if zones.len() == 1 {
                0
            } else {
                self.rng.below(zones.len() as u64) as usize
            };
            let (base, len) = zones[zi];
            (base, self.rng.below(slots_of(len)))
        };
        let addr = base + slot * bytes;
        let bytes = self.spec.bytes;
        let kind = if self.coherent {
            MsgKind::CohReadReq { bytes }
        } else if self.rng.chance(self.spec.write_fraction) {
            MsgKind::WriteReq { bytes }
        } else {
            MsgKind::ReadReq { bytes }
        };
        let (prefix, _) = cohfree_rmc::addr::split(addr);
        (NodeId::new(prefix), kind, addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{AccessOutcome, ThreadSpec};
    use cohfree_fabric::Topology;
    use cohfree_sim::span::TraceMode;
    use cohfree_sim::Rng;

    /// One driver call of the differential test below.
    #[derive(Clone, Copy, Debug)]
    enum Call {
        Blocking(NodeId, NodeId, MsgKind, u64, SimDuration),
        Posted(NodeId, NodeId, MsgKind, u64),
        Drain,
        Threads(u64, u64),
        Sampling,
    }

    /// Everything a caller can observe of a world between calls, plus the
    /// ordinals later keys derive from.
    fn observe(w: &World) -> (SimTime, u64, u64, Vec<u64>, usize) {
        (
            w.now(),
            w.events_processed(),
            w.gseq,
            w.exec_counts.clone(),
            w.pending_count(),
        )
    }

    /// Run `call` on `w`. Thread phases read the zones node 1 borrowed
    /// from node 2 and node 5 from node 6 (`zones[0]` and `zones[2]`), so
    /// their lanes share homes with the drivers.
    fn apply(
        w: &mut World,
        call: Call,
        zones: &[(NodeId, NodeId, u64)],
    ) -> Option<(char, SimTime)> {
        let now = w.now();
        match call {
            Call::Blocking(src, dst, kind, addr, delay) => Some(
                match w.try_blocking_transaction(now + delay, src, dst, kind, addr) {
                    AccessOutcome::Completed { at } => ('C', at),
                    AccessOutcome::Failed { at, .. } => ('F', at),
                    AccessOutcome::Shed { at, .. } => ('S', at),
                },
            ),
            Call::Posted(src, dst, kind, addr) => {
                Some(('P', w.posted_transaction(now, src, dst, kind, addr)))
            }
            Call::Drain => Some(('D', w.drain_background())),
            Call::Threads(n, seed) => {
                for k in 0..n {
                    let (node, base) = [(3, zones[0].2), (12, zones[2].2)][(k % 2) as usize];
                    let spec = ThreadSpec {
                        node: NodeId::new(node),
                        zones: vec![(base, 16 * 4096)],
                        accesses: 40,
                        bytes: 64,
                        write_fraction: 0.3,
                        think: SimDuration::ns(20),
                        seed: seed ^ k,
                    };
                    w.spawn_thread(spec, now);
                }
                w.run();
                None
            }
            Call::Sampling => {
                w.enable_sampling(SimDuration::us(1));
                None
            }
        }
    }

    /// The lone chain and the queue path are the same driver to everyone
    /// but the profiler. Seeded random sequences of blocking, posted and
    /// drain calls (mixed homes and hop counts, reads and writes of 64 B
    /// to 4 KiB, some coherent reads, thread phases and sampling in
    /// between) go to two worlds, one forced onto the queue path. After
    /// every call the result, clock, event count, global sequence number,
    /// per-lane ordinals and pending count must match; at the end, the
    /// whole snapshot document and the Chrome span export.
    #[test]
    fn lone_chain_matches_the_queue_path() {
        let mut lone = 0u64;
        for seed in 0..12u64 {
            let mut rng = Rng::new(0x10E_C4A1 ^ seed);
            let mut cfg = ClusterConfig::prototype();
            cfg.topology = match seed % 3 {
                0 => Topology::prototype(),
                1 => Topology::Torus2D {
                    width: 4,
                    height: 4,
                },
                _ => Topology::Ring { nodes: 16 },
            };
            cfg.trace.mode =
                [TraceMode::Off, TraceMode::Aggregate, TraceMode::Full][(seed / 3 % 3) as usize];
            let coherent = seed % 4 == 3;
            let mut worlds = [World::new(cfg), World::new(cfg)];
            worlds[1].force_queue = true;
            let mut zones = Vec::new();
            for w in &mut worlds {
                if coherent {
                    w.set_coherent_domain((1..=6).map(NodeId::new).collect())
                        .unwrap();
                }
                zones = [(1, 2), (1, 16), (5, 6), (5, 11), (14, 4)]
                    .iter()
                    .map(|&(c, d)| {
                        let (c, d) = (NodeId::new(c), NodeId::new(d));
                        (c, d, w.reserve_remote(c, 16, Some(d)).prefixed_base)
                    })
                    .collect::<Vec<_>>();
            }
            let mut sampling = false;
            for step in 0..400 {
                let (src, dst, base) = zones[rng.below(zones.len() as u64) as usize];
                let addr = base + rng.below(16) * 4096 + rng.below(64) * 64;
                let bytes = [64, 64, 128, 4096][rng.below(4) as usize];
                let call = match rng.below(100) {
                    0..=54 => {
                        let kind = match rng.below(4) {
                            0 => MsgKind::WriteReq { bytes },
                            1 if coherent && dst.get() <= 6 && src.get() <= 6 => {
                                MsgKind::CohReadReq { bytes }
                            }
                            _ => MsgKind::ReadReq { bytes },
                        };
                        let delay = SimDuration::ns(rng.below(4) * 150);
                        Call::Blocking(src, dst, kind, addr, delay)
                    }
                    55..=84 => Call::Posted(src, dst, MsgKind::WriteReq { bytes }, addr),
                    85..=94 => Call::Drain,
                    95..=98 => Call::Threads(rng.range(1, 4), rng.next_u64()),
                    // The probe is armed once: two probes would keep each
                    // other re-arming.
                    _ if seed % 2 == 1 && !sampling && step > 200 => {
                        sampling = true;
                        Call::Sampling
                    }
                    _ => Call::Drain,
                };
                if matches!(
                    call,
                    Call::Blocking(.., MsgKind::ReadReq { .. } | MsgKind::WriteReq { .. }, _, _)
                ) && worlds[0].queue.is_empty()
                {
                    lone += 1;
                }
                let got: Vec<_> = worlds
                    .iter_mut()
                    .map(|w| (apply(w, call, &zones), observe(w)))
                    .collect();
                assert_eq!(got[0], got[1], "seed {seed}, step {step}: {call:?}");
            }
            let docs: Vec<_> = worlds
                .iter()
                .map(|w| {
                    (
                        w.snapshot().doc.to_string(),
                        w.trace().chrome_trace().to_string(),
                    )
                })
                .collect();
            assert!(docs[0] == docs[1], "seed {seed}: snapshot or trace differs");
        }
        assert!(lone > 1_000, "the lone chain ran only {lone} times");
    }

    #[test]
    fn backoff_delay_is_monotone_and_never_wraps() {
        let mut cfg = ClusterConfig::prototype();
        cfg.recovery.backoff_cap = u32::MAX; // worst case: no config clamp
        cfg.recovery.retry_jitter = 0.0; // monotonicity holds without jitter
        let mut prev = SimDuration::ZERO;
        for attempt in 0..200 {
            let d = backoff_delay(&cfg, 7, attempt);
            assert!(d >= cfg.rmc.timeout, "attempt {attempt} collapsed");
            assert!(d >= prev, "attempt {attempt} shrank the backoff");
            prev = d;
        }
        // The plateau is the absolute ceiling, which leaves ~1.8e7 retries
        // of headroom before the picosecond clock can saturate.
        assert_eq!(prev, BACKOFF_CEILING);
        assert!(prev.as_ps() < u64::MAX / 1_000_000);
    }

    #[test]
    fn backoff_delay_respects_the_config_cap() {
        let mut cfg = ClusterConfig::prototype();
        cfg.recovery.backoff_cap = 3;
        cfg.recovery.retry_jitter = 0.0;
        assert_eq!(backoff_delay(&cfg, 7, 5), backoff_delay(&cfg, 7, 3));
        assert_eq!(
            backoff_delay(&cfg, 7, 2).as_ns(),
            cfg.rmc.timeout.as_ns() * 4
        );
    }

    #[test]
    fn backoff_jitter_is_deterministic_bounded_and_capped() {
        let cfg = ClusterConfig::prototype(); // default jitter 0.25
        for attempt in 0..8 {
            for tag in [1u64 << 48, (2u64 << 48) + 3, 9] {
                let d = backoff_delay(&cfg, tag, attempt);
                assert_eq!(d, backoff_delay(&cfg, tag, attempt), "deterministic");
                let floor = {
                    let mut c = cfg;
                    c.recovery.retry_jitter = 0.0;
                    backoff_delay(&c, tag, attempt)
                };
                assert!(d >= floor, "jitter only ever delays");
                let ceil_ns = floor.as_ns_f64() * (1.0 + cfg.recovery.retry_jitter);
                assert!(
                    d.as_ns_f64() <= ceil_ns + 1.0,
                    "jitter bounded by the fraction"
                );
                assert!(d <= BACKOFF_CEILING);
            }
        }
    }

    #[test]
    fn backoff_jitter_spreads_synchronized_clients() {
        // N clients whose retries a shared outage synchronized: their tags
        // encode their node ids, so the first-retry delays must spread out
        // rather than land on one instant.
        let cfg = ClusterConfig::prototype();
        let delays: Vec<SimDuration> = (1..=8u64)
            .map(|node| backoff_delay(&cfg, node << 48, 1))
            .collect();
        let distinct: std::collections::BTreeSet<u64> = delays.iter().map(|d| d.as_ps()).collect();
        assert!(
            distinct.len() >= 6,
            "8 synchronized clients must spread to >= 6 distinct first-retry delays, got {distinct:?}"
        );
    }

    #[test]
    fn key_layout_orders_globals_first_and_lanes_by_node() {
        let g = make_key(GLOBAL_LANE, 0, 0, 7, 0);
        let l1 = make_key(1, 0, 2, 9, 3);
        let l2 = make_key(2, 0, 1, 0, 0);
        assert!(g < l1 && l1 < l2);
        assert_eq!(key_lane(g), GLOBAL_LANE);
        assert_eq!(key_lane(l2), 2);
        assert_eq!(key_gen(make_key(4, 5, 1, 1, 1)), 5);
        // Same-instant children of deeper generations sort after shallower
        // ones on the same lane.
        assert!(make_key(3, 1, 3, 0, 0) > make_key(3, 0, 9, u64::MAX >> 16, u16::MAX));
    }
}
