//! Randomized property tests of the cache substrate: replacement-policy
//! contracts, demotion-cascade termination, and LRU semantics under
//! arbitrary access patterns.
//!
//! Cases are drawn from seeded [`SplitMix64`] streams so every run is
//! deterministic without an external property-testing framework.

use cache_sim::policy::{FillRequest, InsertionClass, PlacementPolicy};
use cache_sim::rng::SplitMix64;
use cache_sim::{
    AccessClass, AccessKind, BaselinePolicy, CacheGeometry, CacheLevel, Drrip, LineAddr, LineState,
    Lru, PackedLruStack, ReplacementPolicy, Ship, WayMask,
};
use energy_model::Energy;

const CASES: u64 = 128;

fn geom_2level() -> CacheGeometry {
    CacheGeometry::from_sublevels(
        16,
        &[
            (4, Energy::from_pj(10.0), 2),
            (12, Energy::from_pj(40.0), 6),
        ],
    )
}

fn random_addrs(rng: &mut SplitMix64, space: u64, min: u64, max: u64) -> Vec<LineAddr> {
    let n = min + rng.next_below(max - min);
    (0..n).map(|_| LineAddr(rng.next_below(space))).collect()
}

/// A placement policy that always demotes one sublevel further,
/// exercising the cascade machinery.
#[derive(Debug)]
struct CascadePolicy;

impl PlacementPolicy for CascadePolicy {
    fn name(&self) -> &'static str {
        "cascade"
    }

    fn insertion_mask(&mut self, geom: &CacheGeometry, _req: &FillRequest) -> Option<WayMask> {
        Some(geom.sublevel_ways(0))
    }

    fn demotion_mask(
        &mut self,
        geom: &CacheGeometry,
        _line: &LineState,
        from_way: usize,
    ) -> Option<WayMask> {
        let s = geom.sublevel(from_way);
        if s + 1 < geom.sublevels() {
            Some(geom.sublevel_ways(s + 1))
        } else {
            None
        }
    }

    fn classify_insertion(&self, _geom: &CacheGeometry, _req: &FillRequest) -> InsertionClass {
        InsertionClass::Other
    }
}

/// LRU always evicts the least-recently-touched candidate.
#[test]
fn lru_contract() {
    let mut rng = SplitMix64::new(0x114);
    for _ in 0..CASES {
        let n = 4 + rng.next_below(12) as usize;
        let mut set: Vec<LineState> = (0..n)
            .map(|i| {
                let mut l = LineState::new(LineAddr(i as u64));
                l.lru_seq = rng.next_below(1_000_000);
                l
            })
            .collect();
        let mut lru = Lru::new();
        let victim = lru.choose_victim(0, &mut set, WayMask::full(n));
        let min = set.iter().map(|l| l.lru_seq).min().unwrap();
        assert_eq!(set[victim].lru_seq, min);
    }
}

/// DRRIP and SHiP victims always come from the candidate mask.
#[test]
fn rrip_victims_stay_in_mask() {
    let mut rng = SplitMix64::new(0x221);
    for _ in 0..CASES {
        let mut set: Vec<LineState> = (0..8)
            .map(|i| {
                let mut l = LineState::new(LineAddr(i as u64));
                l.rrpv = rng.next_below(4) as u8;
                l
            })
            .collect();
        let mask = WayMask::from_bits(1 + rng.next_below(254) as u32);
        assert!(!mask.is_empty());
        let mut drrip = Drrip::new(7);
        let v = drrip.choose_victim(0, &mut set, mask);
        assert!(mask.contains(v));
        let mut set2 = set.clone();
        let mut ship = Ship::new();
        let v = ship.choose_victim(0, &mut set2, mask);
        assert!(mask.contains(v));
    }
}

/// Demotion cascades always terminate and conserve lines: the number
/// of resident lines only grows by successful insertions.
#[test]
fn cascades_terminate_and_conserve_lines() {
    let mut rng = SplitMix64::new(0x332);
    for _ in 0..32 {
        let addrs = random_addrs(&mut rng, 4096, 1, 400);
        let mut cache = CacheLevel::new("c", geom_2level());
        let mut policy = CascadePolicy;
        let mut repl = Lru::new();
        let mut inserted = 0u64;
        let mut departed = 0u64;
        for (i, &line) in addrs.iter().enumerate() {
            let hit = cache
                .access(
                    line,
                    AccessKind::Read,
                    AccessClass::Demand,
                    i as u64,
                    &mut policy,
                    &mut repl,
                )
                .is_hit();
            if !hit {
                let out = cache.fill(FillRequest::new(line), i as u64, &mut policy, &mut repl);
                assert!(!out.bypassed);
                inserted += 1;
                departed += out.evicted().count() as u64;
            }
        }
        assert_eq!(cache.resident_lines() as u64, inserted - departed);
        // Demotions were exercised whenever lines left the level.
        if departed > 0 {
            assert!(cache.stats.movements > 0);
        }
    }
}

/// A line is always findable right after its fill, and the way it
/// occupies is within the policy's insertion mask.
#[test]
fn fills_land_in_the_insertion_mask() {
    let mut rng = SplitMix64::new(0x443);
    for _ in 0..32 {
        let addrs = random_addrs(&mut rng, 512, 1, 200);
        let mut cache = CacheLevel::new("c", geom_2level());
        let mut policy = CascadePolicy;
        let mut repl = Lru::new();
        for (i, &line) in addrs.iter().enumerate() {
            if cache.probe_way(line).is_none() {
                cache.fill(FillRequest::new(line), i as u64, &mut policy, &mut repl);
                let way = cache.probe_way(line).expect("just filled");
                // CascadePolicy inserts into sublevel 0 only.
                assert_eq!(cache.geometry().sublevel(way), 0);
            }
        }
    }
}

/// The packed SoA LRU stack picks the same victim as the reference
/// `Lru` (min `lru_seq`) for every way count 1–16, over random
/// touch/evict/refill sequences with random non-empty candidate masks,
/// and promotion swaps (a hit touch, then the hit line trades places
/// with another way, its recency travelling with it).
#[test]
fn packed_stack_matches_reference_lru_for_every_way_count() {
    let mut rng = SplitMix64::new(0x665);
    for ways in 1..=16usize {
        for _ in 0..CASES / 4 {
            let mut stack = PackedLruStack::new();
            let mut set: Vec<LineState> = (0..ways)
                .map(|i| LineState::new(LineAddr(i as u64)))
                .collect();
            let mut lru = Lru::new();
            let mut seq = 0u64;
            // Every way starts touched (a fill is a touch), mirroring
            // the cache invariant that victim candidates are valid.
            for (w, line) in set.iter_mut().enumerate() {
                seq += 1;
                line.lru_seq = seq;
                stack.touch(w);
            }
            for _ in 0..200 {
                if rng.next_below(4) == 0 {
                    // Evict within a random non-empty candidate mask,
                    // then refill the slot (a fresh touch).
                    let mask_bits = 1 + rng.next_below((1u64 << ways) - 1) as u32;
                    let mask = WayMask::from_bits(mask_bits);
                    let want = lru.choose_victim(0, &mut set, mask);
                    let got = stack.victim_among(mask_bits, ways);
                    assert_eq!(got, want, "ways {ways}, mask {mask_bits:#b}");
                    seq += 1;
                    set[got].lru_seq = seq;
                    stack.touch(got);
                } else {
                    let w = rng.next_below(ways as u64) as usize;
                    seq += 1;
                    set[w].lru_seq = seq;
                    stack.touch(w);
                    if rng.next_below(3) == 0 {
                        let target = rng.next_below(ways as u64) as usize;
                        set.swap(w, target);
                        stack.swap_ways(w, target);
                    }
                }
            }
            let mut by_recency: Vec<usize> = (0..ways).collect();
            by_recency.sort_by_key(|&w| std::cmp::Reverse(set[w].lru_seq));
            assert_eq!(stack.order(ways), by_recency, "ways {ways}");
        }
    }
}

/// A cascading placement that also promotes every hit outside the
/// nearest sublevel into it, the NuRAPID shape.
#[derive(Debug)]
struct PromotingCascade;

impl PlacementPolicy for PromotingCascade {
    fn name(&self) -> &'static str {
        "promoting cascade"
    }

    fn insertion_mask(&mut self, geom: &CacheGeometry, req: &FillRequest) -> Option<WayMask> {
        CascadePolicy.insertion_mask(geom, req)
    }

    fn demotion_mask(
        &mut self,
        geom: &CacheGeometry,
        line: &LineState,
        from_way: usize,
    ) -> Option<WayMask> {
        CascadePolicy.demotion_mask(geom, line, from_way)
    }

    fn promotion_mask(
        &mut self,
        geom: &CacheGeometry,
        _line: &LineState,
        hit_way: usize,
    ) -> Option<WayMask> {
        (geom.sublevel(hit_way) > 0).then(|| geom.sublevel_ways(0))
    }

    fn classify_insertion(&self, _geom: &CacheGeometry, _req: &FillRequest) -> InsertionClass {
        InsertionClass::Other
    }
}

/// A packed-LRU level (the L2/L3 fast path) is a drop-in replacement
/// for the `lru_seq` reference level under chunk-restricted fills,
/// demotion cascades, promotion swaps and invalidations: same verdicts,
/// latencies, victims, statistics and energy over random streams.
#[test]
fn packed_level_matches_reference_under_cascades_and_promotions() {
    let mut rng = SplitMix64::new(0x887);
    let geom = || {
        CacheGeometry::from_sublevels(
            4,
            &[
                (4, Energy::from_pj(10.0), 2),
                (4, Energy::from_pj(20.0), 4),
                (8, Energy::from_pj(40.0), 6),
            ],
        )
    };
    for case in 0..CASES / 4 {
        let mut fast = CacheLevel::new("f", geom()).with_packed_lru(true);
        let mut reference = CacheLevel::new("r", geom()).with_tag_filter(false);
        let (mut fast_pol, mut ref_pol) = (PromotingCascade, PromotingCascade);
        let (mut fast_repl, mut ref_repl) = (Lru::new(), Lru::new());
        let addrs = random_addrs(&mut rng, 160, 200, 800);
        for (i, &line) in addrs.iter().enumerate() {
            if rng.next_below(16) == 0 {
                let f = fast.invalidate(line).map(|e| (e.addr, e.dirty));
                let r = reference.invalidate(line).map(|e| (e.addr, e.dirty));
                assert_eq!(f, r, "case {case}: invalidation diverged at {i}");
                continue;
            }
            let kind = if rng.next_below(4) == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let now = i as u64;
            let f = fast.access(
                line,
                kind,
                AccessClass::Demand,
                now,
                &mut fast_pol,
                &mut fast_repl,
            );
            let r = reference.access(
                line,
                kind,
                AccessClass::Demand,
                now,
                &mut ref_pol,
                &mut ref_repl,
            );
            assert_eq!(
                f.is_hit(),
                r.is_hit(),
                "case {case}: verdict diverged at {i}"
            );
            assert_eq!(
                f.latency(),
                r.latency(),
                "case {case}: latency diverged at {i}"
            );
            if !f.is_hit() {
                let mut req = FillRequest::new(line);
                req.dirty = kind.is_write();
                let fo = fast.fill(req, now, &mut fast_pol, &mut fast_repl);
                let ro = reference.fill(req, now, &mut ref_pol, &mut ref_repl);
                let fe: Vec<_> = fo.evicted().map(|e| (e.addr, e.dirty)).collect();
                let re: Vec<_> = ro.evicted().map(|e| (e.addr, e.dirty)).collect();
                assert_eq!(fe, re, "case {case}: victims diverged at {i}");
            }
            assert_eq!(fast.probe_way(line), reference.probe_way(line));
        }
        assert!(fast.stats.promotions > 0 && fast.stats.movements > 0);
        assert_eq!(fast.stats.promotions, reference.stats.promotions);
        assert_eq!(fast.stats.movements, reference.stats.movements);
        assert_eq!(fast.stats.evictions, reference.stats.evictions);
        assert_eq!(fast.stats.writebacks, reference.stats.writebacks);
        assert_eq!(
            fast.stats.hits_per_sublevel,
            reference.stats.hits_per_sublevel
        );
        assert_eq!(fast.energy().total(), reference.energy().total());
    }
}

/// The SoA fast-hit path (`try_demand_hit` + full-access fallback) is
/// a drop-in replacement for the reference access path on a
/// baseline-LRU level: same verdicts, same latencies, same victims,
/// same statistics, over random read/write streams.
#[test]
fn packed_cache_matches_reference_access_path() {
    let mut rng = SplitMix64::new(0x776);
    let geom = || CacheGeometry::from_sublevels(8, &[(8, Energy::from_pj(5.0), 4)]);
    for _ in 0..32 {
        let mut fast = CacheLevel::new("f", geom())
            .with_tag_filter(true)
            .with_packed_lru(true);
        let mut reference = CacheLevel::new("r", geom());
        let mut fast_pol = BaselinePolicy::new();
        let mut fast_repl = Lru::new();
        let mut ref_pol = BaselinePolicy::new();
        let mut ref_repl = Lru::new();
        let addrs = random_addrs(&mut rng, 192, 100, 600);
        for (i, &line) in addrs.iter().enumerate() {
            let is_write = rng.next_below(4) == 0;
            let kind = if is_write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let r = reference.access(
                line,
                kind,
                AccessClass::Demand,
                i as u64,
                &mut ref_pol,
                &mut ref_repl,
            );
            match fast.try_demand_hit(line, is_write) {
                Some(latency) => {
                    assert!(r.is_hit(), "fast hit where reference missed: {line:?}");
                    if let cache_sim::AccessResult::Hit(h) = r {
                        assert_eq!(latency, h.latency, "hit latency diverged: {line:?}");
                    }
                }
                None => {
                    let f = fast.access(
                        line,
                        kind,
                        AccessClass::Demand,
                        i as u64,
                        &mut fast_pol,
                        &mut fast_repl,
                    );
                    assert!(!f.is_hit(), "try_demand_hit refused a resident line");
                    assert!(
                        !r.is_hit(),
                        "reference hit where fast path missed: {line:?}"
                    );
                    assert_eq!(f.latency(), r.latency());
                    let fo = fast.fill(
                        FillRequest::new(line),
                        i as u64,
                        &mut fast_pol,
                        &mut fast_repl,
                    );
                    let ro = reference.fill(
                        FillRequest::new(line),
                        i as u64,
                        &mut ref_pol,
                        &mut ref_repl,
                    );
                    let fe: Vec<_> = fo.evicted().map(|e| (e.addr, e.dirty)).collect();
                    let re: Vec<_> = ro.evicted().map(|e| (e.addr, e.dirty)).collect();
                    assert_eq!(fe, re, "divergent victims at access {i}");
                }
            }
            assert_eq!(fast.probe_way(line), reference.probe_way(line));
        }
        assert_eq!(fast.stats.demand_accesses, reference.stats.demand_accesses);
        assert_eq!(fast.stats.demand_hits, reference.stats.demand_hits);
        assert_eq!(fast.stats.demand_misses, reference.stats.demand_misses);
        assert_eq!(fast.stats.evictions, reference.stats.evictions);
        assert_eq!(fast.stats.writebacks, reference.stats.writebacks);
        assert_eq!(
            fast.stats.hits_per_sublevel,
            reference.stats.hits_per_sublevel
        );
        assert_eq!(fast.energy().total(), reference.energy().total());
    }
}

/// Evicting or invalidating the memoized line retires the way memo:
/// the stale memo must never satisfy a fast hit for the departed
/// address, and the slot's new occupant must still fast-hit.
#[test]
fn way_memo_is_invalidated_on_eviction() {
    // One set, two ways: evictions are easy to aim.
    let geom = CacheGeometry::from_sublevels(1, &[(2, Energy::from_pj(5.0), 4)]);
    let mut cache = CacheLevel::new("c", geom)
        .with_tag_filter(true)
        .with_packed_lru(true);
    let mut policy = BaselinePolicy::new();
    let mut repl = Lru::new();
    let (a, b, c) = (LineAddr(1), LineAddr(2), LineAddr(3));
    cache.fill(FillRequest::new(a), 0, &mut policy, &mut repl);
    cache.fill(FillRequest::new(b), 0, &mut policy, &mut repl);
    // Hit `a`: the memo now points at a's way, and `a` is MRU.
    assert!(cache.try_demand_hit(a, false).is_some());
    let memo_way = cache.memoized_way(0).expect("memo set by the hit");
    assert_eq!(cache.probe_way(a), Some(memo_way));
    // Hit `a` again so LRU would evict `b`, then aim at `a` anyway:
    // an explicit invalidate of the memoized line.
    assert!(cache.try_demand_hit(a, false).is_some());
    cache.invalidate(a);
    assert_eq!(
        cache.memoized_way(0),
        None,
        "invalidate must clear the memo"
    );
    assert!(cache.try_demand_hit(a, false).is_none());
    // Fill `c`; it lands in a's old slot (the only invalid way). The
    // departed address must not fast-hit; the new occupant must.
    cache.fill(FillRequest::new(c), 0, &mut policy, &mut repl);
    assert!(cache.try_demand_hit(a, false).is_none());
    assert!(cache.try_demand_hit(c, false).is_some());
    // Eviction through a fill cascade also retires the memo: hit `b`
    // (memo = b's way), then fill a new line evicting LRU... `c` was
    // just touched, so evict order is b-then-c only if b is LRU; touch
    // c to make b the victim and memoize b first.
    assert!(cache.try_demand_hit(b, false).is_some());
    assert!(cache.try_demand_hit(c, false).is_some());
    assert!(cache.try_demand_hit(b, false).is_some());
    let b_way = cache.memoized_way(0).expect("memo points at b");
    assert_eq!(cache.probe_way(b), Some(b_way));
    // Evict `c` (LRU) with a new fill: memo (at b) survives and b
    // still fast-hits, while c no longer does.
    let d = LineAddr(4);
    cache.fill(FillRequest::new(d), 0, &mut policy, &mut repl);
    assert!(cache.probe_way(c).is_none(), "c was the LRU victim");
    assert!(cache.try_demand_hit(c, false).is_none());
    assert!(cache.try_demand_hit(b, false).is_some());
    // Now make b the victim of a fill: the memo pointing at b's way
    // must be retired when d's fill displaces it.
    assert!(cache.try_demand_hit(d, false).is_some());
    assert!(cache.try_demand_hit(b, false).is_some());
    assert!(cache.try_demand_hit(d, false).is_some());
    let e = LineAddr(5);
    cache.fill(FillRequest::new(e), 0, &mut policy, &mut repl);
    assert!(cache.probe_way(b).is_none(), "b was the LRU victim");
    assert!(cache.try_demand_hit(b, false).is_none());
    assert!(cache.try_demand_hit(e, false).is_some());
}

/// Energy accounting is monotone: more accesses never reduce any
/// category.
#[test]
fn energy_is_monotone() {
    let mut rng = SplitMix64::new(0x554);
    for _ in 0..32 {
        let addrs = random_addrs(&mut rng, 2048, 2, 100);
        let mut cache = CacheLevel::new("c", geom_2level());
        let mut policy = CascadePolicy;
        let mut repl = Lru::new();
        let mut prev = Energy::ZERO;
        for (i, &line) in addrs.iter().enumerate() {
            let hit = cache
                .access(
                    line,
                    AccessKind::Read,
                    AccessClass::Demand,
                    i as u64,
                    &mut policy,
                    &mut repl,
                )
                .is_hit();
            if !hit {
                cache.fill(FillRequest::new(line), i as u64, &mut policy, &mut repl);
            }
            let total = cache.energy().total();
            assert!(total >= prev);
            prev = total;
        }
    }
}
