//! The five workloads: what each runs, why it exists, and how its
//! campaign specs are generated from the benchmark seed.

use resilim_apps::util::splitmix64;
use resilim_apps::App;
use resilim_harness::{CampaignSpec, ErrorSpec};

/// One benchmark workload (one child process, one `BENCHMARK.json`
/// entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Serial multi-error campaigns, in memory.
    SerialP1,
    /// 4- and 8-rank campaigns, in memory.
    SmallP4P8,
    /// 64-rank campaigns, in memory.
    LargeP64,
    /// Resume + merge over a seeded store; zero trials execute.
    StoreResumeP4,
    /// Two tenants driving an in-process daemon over its unix socket.
    ServedMix,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::SerialP1,
        Workload::SmallP4P8,
        Workload::LargeP64,
        Workload::StoreResumeP4,
        Workload::ServedMix,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SerialP1 => "serial_p1",
            Workload::SmallP4P8 => "small_p4p8",
            Workload::LargeP64 => "large_p64",
            Workload::StoreResumeP4 => "store_resume_p4",
            Workload::ServedMix => "served_mix",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line; goes into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SerialP1 => {
                "p=1 ser:1/ser:8 campaigns of all six apps: tracked Tf64 compute is the trial, \
                 zero messages, two auto workers; inject/apps work shows here, fabric work does not"
            }
            Workload::SmallP4P8 => {
                "p=4 and p=8 one-error campaigns of all six apps: ranks roughly fit the cores, so \
                 mailbox rendezvous, collectives and pool dispatch/join dominate"
            }
            Workload::LargeP64 => {
                "p=64 one-error campaigns of all six apps: 64 rank threads on a few cores, so kernel \
                 scheduling and p=64 collectives dominate; a hook speed-up must not show here"
            }
            Workload::StoreResumeP4 => {
                "resume + merge cycles over a seeded LU/FT p=4 store, zero trials executed: ledger and \
                 feature loads, reorder buffer and aggregation do all the work"
            }
            Workload::ServedMix => {
                "in-process daemon over its real unix socket, tenant A six p=1 campaigns and tenant B \
                 three p=4 plus one p=8: scheduler, protocol, journal and live ledger writes"
            }
        }
    }

    /// Stable small integer mixed into campaign seeds.
    fn tag(self) -> u64 {
        match self {
            Workload::SerialP1 => 1,
            Workload::SmallP4P8 => 2,
            Workload::LargeP64 => 3,
            Workload::StoreResumeP4 => 4,
            Workload::ServedMix => 5,
        }
    }
}

/// Trial counts. The mix (which deployments) and the minimum segment
/// count never change; only these are trimmed to fit the time cap.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `serial_p1`: trials per campaign (12 campaigns).
    pub serial_trials: usize,
    /// `small_p4p8`: trials per campaign (12 campaigns).
    pub small_trials: usize,
    /// `large_p64`: trials per campaign (6 campaigns).
    pub large_trials: usize,
    /// `store_resume_p4`: trials seeded per campaign (LU, FT).
    pub store_trials: usize,
    /// `store_resume_p4`: resume + merge cycles per segment.
    pub store_cycles: usize,
    /// `served_mix`: trials per tenant-A (p=1) campaign.
    pub served_a_trials: usize,
    /// `served_mix`: trials per tenant-B (p=4/p=8) campaign.
    pub served_b_trials: usize,
    /// Cold set-ups timed before the warm-up (cheap ones are timed again
    /// between segments).
    pub setups: usize,
    /// Minimum measured segments.
    pub min_segments: usize,
    /// Trials per cell of the 24-cell grid probe, by scale index
    /// (p = 1, 4, 8, 64).
    pub grid_trials: [usize; 4],
    /// Scale factor on micro-probe iteration counts (1 = full).
    pub probe_scale: f64,
}

impl Sizes {
    /// Sizes for a real run: ≈ 1–1.5 s per segment on a 2-core host.
    pub const FULL: Sizes = Sizes {
        serial_trials: 80,
        small_trials: 20,
        large_trials: 6,
        store_trials: 150,
        store_cycles: 10,
        served_a_trials: 80,
        served_b_trials: 50,
        setups: 7,
        min_segments: 8,
        grid_trials: [12, 6, 6, 3],
        probe_scale: 1.0,
    };

    /// Smoke sizes (`--quick`): one warm-up + two segments, a few
    /// trials per campaign. Good for "does every path run", useless
    /// as a measurement.
    pub const QUICK: Sizes = Sizes {
        serial_trials: 4,
        small_trials: 3,
        large_trials: 1,
        store_trials: 12,
        store_cycles: 2,
        served_a_trials: 4,
        served_b_trials: 3,
        setups: 2,
        min_segments: 2,
        grid_trials: [2, 1, 1, 1],
        probe_scale: 0.02,
    };
}

/// The seed of campaign `campaign` in segment `segment`: a `splitmix64`
/// chain over `(seed, workload, segment, campaign)`. The program under
/// test sees only the resulting [`CampaignSpec`]s.
pub fn campaign_seed(seed: u64, workload: Workload, segment: u64, campaign: u64) -> u64 {
    let mut h = splitmix64(seed);
    for part in [workload.tag(), segment, campaign] {
        h = splitmix64(h ^ part);
    }
    h
}

fn spec(app: App, procs: usize, errors: ErrorSpec, tests: usize, seed: u64) -> CampaignSpec {
    CampaignSpec::new(app.default_spec(), procs, errors, tests, seed)
}

/// The campaign mix of one segment of an in-memory workload, in
/// execution order.
pub fn memory_mix(workload: Workload, sizes: &Sizes, seed: u64, segment: u64) -> Vec<CampaignSpec> {
    let shapes: Vec<(App, usize, ErrorSpec, usize)> = match workload {
        Workload::SerialP1 => App::ALL
            .into_iter()
            .flat_map(|app| {
                [1, 8].map(|x| (app, 1, ErrorSpec::SerialErrors(x), sizes.serial_trials))
            })
            .collect(),
        Workload::SmallP4P8 => App::ALL
            .into_iter()
            .flat_map(|app| [4, 8].map(|p| (app, p, ErrorSpec::OneParallel, sizes.small_trials)))
            .collect(),
        Workload::LargeP64 => App::ALL
            .into_iter()
            .map(|app| (app, 64, ErrorSpec::OneParallel, sizes.large_trials))
            .collect(),
        other => panic!("{} is not an in-memory workload", other.name()),
    };
    shapes
        .into_iter()
        .enumerate()
        .map(|(i, (app, procs, errors, tests))| {
            spec(
                app,
                procs,
                errors,
                tests,
                campaign_seed(seed, workload, segment, i as u64),
            )
        })
        .collect()
}

/// The two campaigns `store_resume_p4` seeds once per set-up and then
/// resumes and merges in every segment (so their seeds do not depend
/// on the segment).
pub fn store_campaigns(sizes: &Sizes, seed: u64) -> Vec<CampaignSpec> {
    [App::Lu, App::Ft]
        .into_iter()
        .enumerate()
        .map(|(i, app)| {
            spec(
                app,
                4,
                ErrorSpec::OneParallel,
                sizes.store_trials,
                campaign_seed(seed, Workload::StoreResumeP4, 0, i as u64),
            )
        })
        .collect()
}

/// `served_mix`'s two tenants for one segment: A submits six p=1
/// `ser:1` campaigns one after another, B three p=4 and one p=8 `par`
/// campaigns. Fresh seeds per segment, so no submission dedups.
pub fn served_tenants(sizes: &Sizes, seed: u64, segment: u64) -> [Vec<CampaignSpec>; 2] {
    let seed_of = |i: u64| campaign_seed(seed, Workload::ServedMix, segment, i);
    let a = App::ALL
        .into_iter()
        .enumerate()
        .map(|(i, app)| {
            spec(
                app,
                1,
                ErrorSpec::SerialErrors(1),
                sizes.served_a_trials,
                seed_of(i as u64),
            )
        })
        .collect();
    let b = [(App::Cg, 4), (App::Lu, 4), (App::MiniFe, 4), (App::Ft, 8)]
        .into_iter()
        .enumerate()
        .map(|(i, (app, procs))| {
            spec(
                app,
                procs,
                ErrorSpec::OneParallel,
                sizes.served_b_trials,
                seed_of(100 + i as u64),
            )
        })
        .collect();
    [a, b]
}

/// Every campaign of `segment`, in mix order, whichever kind of
/// workload it is (`store_resume_p4`'s do not depend on the segment).
pub fn segment_specs(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    segment: u64,
) -> Vec<CampaignSpec> {
    match workload {
        Workload::StoreResumeP4 => store_campaigns(sizes, seed),
        Workload::ServedMix => served_tenants(sizes, seed, segment).concat(),
        w => memory_mix(w, sizes, seed, segment),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_depend_on_every_coordinate() {
        let base = campaign_seed(2018, Workload::SerialP1, 3, 5);
        assert_eq!(base, campaign_seed(2018, Workload::SerialP1, 3, 5));
        assert_ne!(base, campaign_seed(2019, Workload::SerialP1, 3, 5));
        assert_ne!(base, campaign_seed(2018, Workload::SmallP4P8, 3, 5));
        assert_ne!(base, campaign_seed(2018, Workload::SerialP1, 4, 5));
        assert_ne!(base, campaign_seed(2018, Workload::SerialP1, 3, 6));
    }

    #[test]
    fn mixes_have_the_advertised_shape() {
        let s = Sizes::QUICK;
        let serial = memory_mix(Workload::SerialP1, &s, 1, 0);
        assert_eq!(serial.len(), 12);
        assert!(serial.iter().all(|c| c.procs == 1));
        let small = memory_mix(Workload::SmallP4P8, &s, 1, 0);
        assert_eq!(small.iter().filter(|c| c.procs == 4).count(), 6);
        assert_eq!(small.iter().filter(|c| c.procs == 8).count(), 6);
        let large = memory_mix(Workload::LargeP64, &s, 1, 0);
        assert_eq!(large.len(), 6);
        assert!(large.iter().all(|c| c.procs == 64));
        assert_eq!(store_campaigns(&s, 1).len(), 2);
        let [a, b] = served_tenants(&s, 1, 0);
        assert_eq!((a.len(), b.len()), (6, 4));
        // Same seed → same inputs; different segment → no dedup.
        assert_eq!(
            memory_mix(Workload::SerialP1, &s, 1, 2)[0].cache_key(),
            memory_mix(Workload::SerialP1, &s, 1, 2)[0].cache_key()
        );
        assert_ne!(
            served_tenants(&s, 1, 0)[0][0].cache_key(),
            served_tenants(&s, 1, 1)[0][0].cache_key()
        );
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
    }
}
