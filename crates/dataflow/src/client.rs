//! Dataflow arrival clients.
//!
//! A *Dataflow Generator Client* issues dataflows at Poisson arrival
//! times (λ = one quantum by default). Two mixes are used in the paper's
//! §6.5: **random** (each arrival picks an application uniformly) and
//! **phases** (CyberShake → LIGO → Montage → CyberShake, to measure
//! adaptation to workload change).

use flowtune_common::{SimDuration, SimRng, SimTime};

use crate::apps::App;

/// How the application of each arrival is chosen.
#[derive(Debug, Clone)]
pub enum WorkloadKind {
    /// Uniformly random application per arrival (§6.5.2).
    Random,
    /// Fixed phases: each entry is `(app, phase length)`; arrivals inside
    /// a phase are of that application. After the last phase the final
    /// application keeps being issued.
    Phases(Vec<(App, SimDuration)>),
}

impl WorkloadKind {
    /// The paper's phase schedule (§6.1): CyberShake for 10 000 s, LIGO
    /// for 5 000 s, Montage for 20 000 s, CyberShake for 8 200 s —
    /// 43 200 s = 720 quanta in total.
    pub fn paper_phases() -> Self {
        WorkloadKind::Phases(vec![
            (App::Cybershake, SimDuration::from_secs(10_000)),
            (App::Ligo, SimDuration::from_secs(5_000)),
            (App::Montage, SimDuration::from_secs(20_000)),
            (App::Cybershake, SimDuration::from_secs(8_200)),
        ])
    }

    fn app_at(&self, t: SimTime, rng: &mut SimRng) -> App {
        match self {
            WorkloadKind::Random => *rng.choose(&App::ALL),
            WorkloadKind::Phases(phases) => {
                let mut start = SimTime::ZERO;
                for (app, len) in phases {
                    if t < start + *len {
                        return *app;
                    }
                    start += *len;
                }
                phases.last().map(|(app, _)| *app).unwrap_or(App::Montage)
            }
        }
    }
}

/// Poisson arrival process paired with a workload mix.
#[derive(Debug)]
pub struct ArrivalClient {
    kind: WorkloadKind,
    mean_interarrival: SimDuration,
    rng: SimRng,
    next_time: SimTime,
}

impl ArrivalClient {
    /// Create a client; `mean_interarrival` is the Poisson λ expressed
    /// as a mean gap (Table 3: one quantum = 60 s).
    pub fn new(kind: WorkloadKind, mean_interarrival: SimDuration, rng: SimRng) -> Self {
        assert!(
            !mean_interarrival.is_zero(),
            "mean inter-arrival must be positive"
        );
        let mut client = ArrivalClient {
            kind,
            mean_interarrival,
            rng,
            next_time: SimTime::ZERO,
        };
        client.advance();
        client
    }

    fn advance(&mut self) {
        let gap = self.rng.exponential(self.mean_interarrival.as_secs_f64());
        self.next_time += SimDuration::from_secs_f64(gap);
    }

    /// Next arrival: `(time, application)`. Call repeatedly; arrivals are
    /// strictly ordered in time.
    pub fn next_arrival(&mut self) -> (SimTime, App) {
        let t = self.next_time;
        let app = self.kind.app_at(t, &mut self.rng);
        self.advance();
        (t, app)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(n: u64) -> SimDuration {
        SimDuration::from_secs(60 * n)
    }

    /// All arrivals up to `horizon`.
    fn arrivals_until(c: &mut ArrivalClient, horizon: SimTime) -> Vec<(SimTime, App)> {
        let mut out = Vec::new();
        while c.next_time <= horizon {
            out.push(c.next_arrival());
        }
        out
    }

    #[test]
    fn poisson_rate_is_about_one_per_quantum() {
        let mut c = ArrivalClient::new(WorkloadKind::Random, q(1), SimRng::seed_from_u64(1));
        let horizon = SimTime::ZERO + q(720);
        let arrivals = arrivals_until(&mut c, horizon);
        // 720 expected; Poisson stdev ~27.
        assert!(
            (620..820).contains(&arrivals.len()),
            "{} arrivals",
            arrivals.len()
        );
        assert!(
            arrivals.windows(2).all(|w| w[0].0 < w[1].0),
            "arrivals must be ordered"
        );
    }

    #[test]
    fn random_mix_covers_all_apps() {
        let mut c = ArrivalClient::new(WorkloadKind::Random, q(1), SimRng::seed_from_u64(2));
        let mut seen = Vec::new();
        for _ in 0..100 {
            let app = c.next_arrival().1;
            if !seen.contains(&app) {
                seen.push(app);
            }
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn phases_switch_apps_at_boundaries() {
        let kind = WorkloadKind::paper_phases();
        let mut rng = SimRng::seed_from_u64(3);
        assert_eq!(
            kind.app_at(SimTime::from_secs(0), &mut rng),
            App::Cybershake
        );
        assert_eq!(
            kind.app_at(SimTime::from_secs(9_999), &mut rng),
            App::Cybershake
        );
        assert_eq!(kind.app_at(SimTime::from_secs(10_000), &mut rng), App::Ligo);
        assert_eq!(
            kind.app_at(SimTime::from_secs(15_000), &mut rng),
            App::Montage
        );
        assert_eq!(
            kind.app_at(SimTime::from_secs(35_000), &mut rng),
            App::Cybershake
        );
        // Past the last phase: keeps issuing the final app.
        assert_eq!(
            kind.app_at(SimTime::from_secs(99_999), &mut rng),
            App::Cybershake
        );
    }

    #[test]
    fn paper_phases_cover_the_720_quantum_horizon() {
        if let WorkloadKind::Phases(phases) = WorkloadKind::paper_phases() {
            let total: SimDuration = phases.iter().map(|(_, d)| *d).sum();
            assert_eq!(total, SimDuration::from_secs(43_200));
        } else {
            panic!("paper_phases must be phased");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = ArrivalClient::new(WorkloadKind::Random, q(1), SimRng::seed_from_u64(4));
        let mut b = ArrivalClient::new(WorkloadKind::Random, q(1), SimRng::seed_from_u64(4));
        for _ in 0..50 {
            assert_eq!(a.next_arrival(), b.next_arrival());
        }
    }
}
