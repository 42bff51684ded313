//! Instance population: counts, sizes, failure modes, versions.

use crate::config::WorldConfig;
use crate::names;
use fediscope_core::failure::FailureMode;
use fediscope_core::id::{Domain, InstanceId};
use fediscope_core::model::{InstanceKind, InstanceProfile, SoftwareVersion};
use fediscope_core::paper;
use fediscope_core::time::{SimTime, CAMPAIGN_START};
use rand::Rng;

/// The skeleton of an instance before users/posts are generated.
#[derive(Debug, Clone)]
pub struct InstanceSkeleton {
    /// Profile (identity, software, flags).
    pub profile: InstanceProfile,
    /// How the instance answers the network.
    pub failure: FailureMode,
    /// Target user count (full scale).
    pub users_target: u32,
    /// Target post count at full scale (§3's 24.5 M splits over these).
    pub posts_full_scale: u64,
    /// Whether this is one of the paper's named instances.
    pub named: bool,
}

impl InstanceSkeleton {
    /// Crawlable = healthy on the network.
    pub fn crawlable(&self) -> bool {
        self.failure == FailureMode::Healthy
    }
}

/// Generates the full instance population:
/// crawlable Pleroma (incl. the named Table 1 instances), failed Pleroma
/// (with the §3 failure taxonomy), and non-Pleroma instances (incl.
/// `gab.com`). Returned in that order, ids dense from 0.
pub fn generate_population<R: Rng>(config: &WorldConfig, rng: &mut R) -> Vec<InstanceSkeleton> {
    let mut out = Vec::new();
    let mut next_id = 0u32;

    // ---- Counts (scaled) ----
    let crawled = config.scaled(paper::CRAWLED_INSTANCES, 8);
    let failures: Vec<(FailureMode, u32)> = FailureMode::PAPER_TAXONOMY
        .iter()
        .map(|(mode, n)| (*mode, config.scaled(*n, 1)))
        .collect();
    let non_pleroma = config.scaled(paper::NON_PLEROMA_INSTANCES, 12);
    let users_total = config.scaled(paper::TOTAL_USERS, 200) as u64;
    let posts_total = ((paper::TOTAL_POSTS as f64) * config.scale) as u64;

    // ---- Crawlable Pleroma: named first ----
    let named_count = names::NAMED_PLEROMA.len() as u32;
    let mut named_users = 0u64;
    let mut named_posts = 0u64;
    for (domain, users, posts, _) in names::NAMED_PLEROMA {
        let users = ((users as f64 * config.scale).round() as u32).max(1);
        let posts = ((posts as f64) * config.scale) as u64;
        named_users += users as u64;
        named_posts += posts;
        // spinster.xyz's Perspective columns are NA in Table 1: its public
        // timeline was not retrievable. Encoded here as closed.
        let timeline_open = domain != "spinster.xyz";
        out.push(InstanceSkeleton {
            profile: InstanceProfile {
                id: InstanceId(next_id),
                domain: Domain::new(domain),
                kind: InstanceKind::Pleroma(SoftwareVersion::new(2, 2, 0)),
                title: names::title_for(&Domain::new(domain)),
                registrations_open: true,
                founded: SimTime(CAMPAIGN_START.0 - 86_400 * rng.gen_range(200..900)),
                exposes_policies: true,
                public_timeline_open: timeline_open,
            },
            failure: FailureMode::Healthy,
            users_target: users,
            posts_full_scale: posts,
            named: true,
        });
        next_id += 1;
    }

    // ---- Crawlable Pleroma: synthetic fill ----
    let fill = crawled.saturating_sub(named_count).max(3);
    // Size ladder: a thick base of single-user / tiny instances (the §5
    // filter removes 26.4% single-user rejected instances, so they must
    // exist in numbers), and a power-law body rescaled to the user total.
    let mut raw_sizes: Vec<f64> = (0..fill)
        .map(|_| {
            let r: f64 = rng.gen();
            if r < 0.38 {
                1.0
            } else if r < 0.55 {
                rng.gen_range(2.0..5.0)
            } else {
                let u: f64 = rng.gen_range(1e-4..1.0);
                (5.0 * u.powf(-1.0 / 1.25)).min(9_500.0)
            }
        })
        .collect();
    // Rescale only the power-law body so the base stays tiny.
    let body_sum: f64 = raw_sizes.iter().filter(|&&s| s >= 5.0).sum();
    let base_sum: f64 = raw_sizes.iter().filter(|&&s| s < 5.0).sum();
    let budget = (users_total.saturating_sub(named_users)) as f64;
    let scale = ((budget - base_sum) / body_sum).max(0.1);
    for s in &mut raw_sizes {
        if *s >= 5.0 {
            *s = (*s * scale).round().max(5.0);
        } else {
            *s = s.round().max(1.0);
        }
    }
    // Per-instance posting rates (posts per user), lognormal-ish.
    let mut post_counts: Vec<f64> = raw_sizes
        .iter()
        .map(|&users| {
            let rate = 180.0 * (rng.gen_range(-1.2_f64..1.2)).exp();
            users * rate
        })
        .collect();
    let post_sum: f64 = post_counts.iter().sum();
    let post_budget = posts_total.saturating_sub(named_posts) as f64;
    let post_scale = post_budget / post_sum.max(1.0);
    for p in &mut post_counts {
        *p = (*p * post_scale).round();
    }
    // §3: some instances have zero posts. Zero out the smallest ones.
    let zero_posts = config.scaled(paper::INSTANCES_NO_POSTS, 1) as usize;
    let mut order: Vec<usize> = (0..fill as usize).collect();
    order.sort_by(|&a, &b| raw_sizes[a].partial_cmp(&raw_sizes[b]).unwrap());
    for &idx in order.iter().take(zero_posts.min(order.len())) {
        post_counts[idx] = 0.0;
    }

    let exposure_hidden_share = 1.0 - paper::POLICY_EXPOSURE_FRACTION;
    for i in 0..fill as usize {
        let version = if rng.gen_bool(0.72) {
            SoftwareVersion::new(2, rng.gen_range(1..=3), rng.gen_range(0..=2))
        } else {
            SoftwareVersion::new(2, 0, rng.gen_range(0..=7))
        };
        out.push(InstanceSkeleton {
            profile: InstanceProfile {
                id: InstanceId(next_id),
                domain: names::pleroma_domain(next_id),
                kind: InstanceKind::Pleroma(version),
                title: names::title_for(&names::pleroma_domain(next_id)),
                registrations_open: rng.gen_bool(0.7),
                founded: SimTime(CAMPAIGN_START.0 - 86_400 * rng.gen_range(30..1200)),
                exposes_policies: !rng.gen_bool(exposure_hidden_share),
                public_timeline_open: true, // refined by the world builder
            },
            failure: FailureMode::Healthy,
            users_target: raw_sizes[i] as u32,
            posts_full_scale: post_counts[i] as u64,
            named: false,
        });
        next_id += 1;
    }

    // ---- Failed Pleroma instances (present in directories/peers, dead on
    // the wire). Sizes are unknowable to the crawler; keep them small.
    for (mode, count) in failures {
        for _ in 0..count {
            out.push(InstanceSkeleton {
                profile: InstanceProfile {
                    id: InstanceId(next_id),
                    domain: names::pleroma_domain(next_id),
                    kind: InstanceKind::Pleroma(SoftwareVersion::new(2, 0, 7)),
                    title: "unreachable".into(),
                    registrations_open: false,
                    founded: SimTime(CAMPAIGN_START.0 - 86_400 * rng.gen_range(100..1500)),
                    exposes_policies: false,
                    public_timeline_open: false,
                },
                failure: mode,
                users_target: rng.gen_range(1..40),
                posts_full_scale: 0,
                named: false,
            });
            next_id += 1;
        }
    }

    // ---- Non-Pleroma (Mastodon et al.): named first ----
    for (domain, _) in names::NAMED_NON_PLEROMA {
        out.push(InstanceSkeleton {
            profile: InstanceProfile {
                id: InstanceId(next_id),
                domain: Domain::new(domain),
                kind: InstanceKind::Mastodon,
                title: names::title_for(&Domain::new(domain)),
                registrations_open: true,
                founded: SimTime(CAMPAIGN_START.0 - 86_400 * 1000),
                exposes_policies: false,
                public_timeline_open: true,
            },
            failure: FailureMode::Healthy,
            users_target: 50_000,
            posts_full_scale: 0,
            named: true,
        });
        next_id += 1;
    }
    let np_fill = non_pleroma.saturating_sub(names::NAMED_NON_PLEROMA.len() as u32);
    for _ in 0..np_fill {
        let kind = if rng.gen_bool(0.9) {
            InstanceKind::Mastodon
        } else {
            InstanceKind::Other(
                ["peertube", "misskey", "hubzilla", "pixelfed"][rng.gen_range(0..4)].to_string(),
            )
        };
        out.push(InstanceSkeleton {
            profile: InstanceProfile {
                id: InstanceId(next_id),
                domain: names::mastodon_domain(next_id),
                kind,
                title: "fediverse neighbour".into(),
                registrations_open: rng.gen_bool(0.8),
                founded: SimTime(CAMPAIGN_START.0 - 86_400 * rng.gen_range(30..1500)),
                exposes_policies: false,
                public_timeline_open: true,
            },
            failure: FailureMode::Healthy,
            users_target: rng.gen_range(1..2_000),
            posts_full_scale: 0,
            named: false,
        });
        next_id += 1;
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn population(config: &WorldConfig) -> Vec<InstanceSkeleton> {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        generate_population(config, &mut rng)
    }

    #[test]
    fn full_scale_counts_match_census() {
        let pop = population(&WorldConfig::paper());
        let pleroma: Vec<_> = pop.iter().filter(|i| i.profile.is_pleroma()).collect();
        let crawlable = pleroma.iter().filter(|i| i.crawlable()).count();
        let failed = pleroma.iter().filter(|i| !i.crawlable()).count();
        assert_eq!(crawlable as u32, paper::CRAWLED_INSTANCES);
        assert_eq!(failed as u32, paper::crawl_failures::TOTAL);
        let non_pleroma = pop.iter().filter(|i| !i.profile.is_pleroma()).count();
        assert_eq!(non_pleroma as u32, paper::NON_PLEROMA_INSTANCES);
    }

    #[test]
    fn failure_taxonomy_is_exact_at_full_scale() {
        let pop = population(&WorldConfig::paper());
        for (mode, want) in FailureMode::PAPER_TAXONOMY {
            let got = pop.iter().filter(|i| i.failure == mode).count() as u32;
            assert_eq!(got, want, "{mode:?}");
        }
    }

    #[test]
    fn user_total_is_calibrated() {
        let pop = population(&WorldConfig::paper());
        let users: u64 = pop
            .iter()
            .filter(|i| i.profile.is_pleroma() && i.crawlable())
            .map(|i| i.users_target as u64)
            .sum();
        let want = paper::TOTAL_USERS as f64;
        assert!(
            (users as f64 - want).abs() / want < 0.05,
            "users {users} vs {want}"
        );
    }

    #[test]
    fn post_total_is_calibrated() {
        let pop = population(&WorldConfig::paper());
        let posts: u64 = pop.iter().map(|i| i.posts_full_scale).sum();
        let want = paper::TOTAL_POSTS as f64;
        assert!(
            (posts as f64 - want).abs() / want < 0.08,
            "posts {posts} vs {want}"
        );
    }

    #[test]
    fn named_instances_present_with_table1_sizes() {
        let pop = population(&WorldConfig::paper());
        let spinster = pop
            .iter()
            .find(|i| i.profile.domain.as_str() == "spinster.xyz")
            .unwrap();
        assert_eq!(spinster.users_target, 17_900);
        assert!(!spinster.profile.public_timeline_open, "Table 1 NA scores");
        let fse = pop
            .iter()
            .find(|i| i.profile.domain.as_str() == "freespeechextremist.com")
            .unwrap();
        assert_eq!(fse.users_target, 1_800);
        assert_eq!(fse.posts_full_scale, 1_130_000);
        assert!(fse.profile.public_timeline_open);
        assert!(pop.iter().any(|i| i.profile.domain.as_str() == "gab.com"));
    }

    #[test]
    fn sizes_are_heavy_tailed_with_many_single_user_instances() {
        let pop = population(&WorldConfig::paper());
        let sizes: Vec<u32> = pop
            .iter()
            .filter(|i| i.profile.is_pleroma() && i.crawlable())
            .map(|i| i.users_target)
            .collect();
        let single = sizes.iter().filter(|&&s| s <= 1).count() as f64 / sizes.len() as f64;
        assert!(single > 0.15, "single-user share {single}");
        let max = *sizes.iter().max().unwrap();
        assert!(max >= 9_000, "heavy tail, max {max}");
    }

    #[test]
    fn some_instances_have_zero_posts() {
        let pop = population(&WorldConfig::paper());
        let zero = pop
            .iter()
            .filter(|i| i.profile.is_pleroma() && i.crawlable() && i.posts_full_scale == 0)
            .count();
        assert!(zero >= paper::INSTANCES_NO_POSTS as usize);
    }

    #[test]
    fn ids_are_dense_and_unique() {
        let pop = population(&WorldConfig::test_small());
        for (i, inst) in pop.iter().enumerate() {
            assert_eq!(inst.profile.id.0 as usize, i);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = population(&WorldConfig::test_small());
        let b = population(&WorldConfig::test_small());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.profile.domain, y.profile.domain);
            assert_eq!(x.users_target, y.users_target);
            assert_eq!(x.posts_full_scale, y.posts_full_scale);
        }
    }

    #[test]
    fn small_scale_still_produces_minimums() {
        let pop = population(&WorldConfig::test_small());
        assert!(pop.iter().any(|i| !i.crawlable()));
        assert!(pop.iter().any(|i| !i.profile.is_pleroma()));
        assert!(pop.len() > 100);
    }
}
