//! Property-based tests for the MRF engine's laws.

#![cfg(test)]

use crate::catalog::PolicyKind;
use crate::id::{ActivityId, Domain, PostId, UserId, UserRef};
use crate::model::{Activity, Post, Visibility};
use crate::mrf::policies::{
    EnsureRePrependedPolicy, HellthreadPolicy, KeywordAction, KeywordPolicy, KeywordRule,
    NoOpPolicy, NormalizeMarkupPolicy, SimpleAction, SimplePolicy,
};
use crate::mrf::{
    ActorDirectory, MrfPipeline, MrfPolicy, NullActorDirectory, PolicyContext, PolicyVerdict,
    RefVerdict,
};
use crate::time::SimTime;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn ctx_bits() -> (Domain, NullActorDirectory) {
    (Domain::new("home.example"), NullActorDirectory)
}

fn arb_post() -> impl Strategy<Value = Post> {
    (
        1u64..1_000_000,
        "[a-z]{2,8}\\.[a-z]{2,4}",
        proptest::collection::vec("[a-z]{1,10}", 0..12),
        0usize..30,
        prop_oneof![
            Just(Visibility::Public),
            Just(Visibility::Unlisted),
            Just(Visibility::FollowersOnly),
            Just(Visibility::Direct),
        ],
        proptest::option::of("[a-z ]{1,20}"),
        any::<bool>(),
    )
        .prop_map(
            |(id, domain, words, mentions, visibility, subject, reply)| {
                let author = UserRef::new(UserId(id % 977), Domain::new(domain));
                let mut post =
                    Post::stub(PostId(id), author, SimTime(id % 10_000), words.join(" "));
                post.visibility = visibility;
                post.subject = subject;
                post.in_reply_to = reply.then_some(PostId(1));
                for m in 0..mentions {
                    post.mentions
                        .push(UserRef::new(UserId(m as u64), Domain::new("m.example")));
                }
                post
            },
        )
}

/// Every admin-applied MRF tag, in declaration order.
const MRF_TAGS: [&str; 6] = [
    crate::model::mrf_tags::MEDIA_FORCE_NSFW,
    crate::model::mrf_tags::MEDIA_STRIP,
    crate::model::mrf_tags::FORCE_UNLISTED,
    crate::model::mrf_tags::SANDBOX,
    crate::model::mrf_tags::DISABLE_REMOTE_SUBSCRIPTION,
    crate::model::mrf_tags::DISABLE_ANY_SUBSCRIPTION,
];

/// An actor directory whose only knowledge is per-account MRF tags —
/// enough to reach every tagged branch of `TagPolicy`.
#[derive(Debug, Default)]
struct TaggedDirectory {
    tags: HashMap<UserRef, Vec<String>>,
}

impl TaggedDirectory {
    /// Applies `MRF_TAGS[i]` to `authors[i]` and to `targets[i]`.
    fn new(authors: &[UserRef], targets: &[UserRef]) -> Self {
        let mut dir = Self::default();
        for (tag, (author, target)) in MRF_TAGS.iter().zip(authors.iter().zip(targets)) {
            for account in [author, target] {
                dir.tags
                    .entry(account.clone())
                    .or_default()
                    .push(tag.to_string());
            }
        }
        dir
    }
}

impl ActorDirectory for TaggedDirectory {
    fn is_bot(&self, _: &UserRef) -> bool {
        false
    }
    fn followers(&self, _: &UserRef) -> Option<u32> {
        None
    }
    fn created(&self, _: &UserRef) -> Option<SimTime> {
        None
    }
    fn mrf_tags(&self, actor: &UserRef) -> Vec<String> {
        self.tags.get(actor).cloned().unwrap_or_default()
    }
    fn report_count(&self, _: &UserRef) -> u32 {
        0
    }
}

/// One control-phase event of the delta-API differential test: a
/// rollout-wave merge, a single cascade block, or a policy enable —
/// exactly the event mix the dynamics engine routes through the
/// incremental compilation path.
#[derive(Debug, Clone)]
enum DeltaOp {
    Merge(Vec<(usize, String)>),
    Block(String),
    Enable(usize),
}

proptest! {
    /// NoOp is the identity: the activity comes out exactly as it went in.
    #[test]
    fn noop_is_identity(post in arb_post()) {
        let (local, dir) = ctx_bits();
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        let act = Activity::create(ActivityId(1), post);
        let before = format!("{act:?}");
        match NoOpPolicy.filter(&ctx, act) {
            PolicyVerdict::Pass(after) => prop_assert_eq!(before, format!("{after:?}")),
            PolicyVerdict::Reject(_) => prop_assert!(false, "NoOp must never reject"),
        }
        prop_assert!(ctx.take_effects().is_empty());
    }

    /// An empty pipeline passes everything unchanged; appending NoOp never
    /// changes a pipeline's verdict.
    #[test]
    fn noop_append_preserves_verdict(post in arb_post(), reject_origin in any::<bool>()) {
        let (local, dir) = ctx_bits();
        let origin = post.author.domain.clone();
        let mut simple = SimplePolicy::new();
        if reject_origin {
            simple.add_target(SimpleAction::Reject, origin);
        }
        let base = MrfPipeline::new().with(Arc::new(simple.clone()));
        let extended = MrfPipeline::new()
            .with(Arc::new(simple))
            .with(Arc::new(NoOpPolicy));
        let act = Activity::create(ActivityId(1), post);
        let ctx1 = PolicyContext::new(&local, SimTime(0), &dir);
        let ctx2 = PolicyContext::new(&local, SimTime(0), &dir);
        let a = base.filter(&ctx1, act.clone()).accepted();
        let b = extended.filter(&ctx2, act).accepted();
        prop_assert_eq!(a, b);
    }

    /// EnsureRePrepended is idempotent: filtering twice equals filtering
    /// once.
    #[test]
    fn ensure_re_prepended_idempotent(post in arb_post()) {
        let (local, dir) = ctx_bits();
        let p = EnsureRePrependedPolicy;
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        let once = p
            .filter(&ctx, Activity::create(ActivityId(1), post))
            .expect_pass();
        let subject_once = once.note().unwrap().subject.clone();
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        let twice = p.filter(&ctx, once).expect_pass();
        prop_assert_eq!(subject_once, twice.note().unwrap().subject.clone());
    }

    /// NormalizeMarkup is idempotent and never grows the content.
    #[test]
    fn normalize_markup_idempotent(raw in "[a-z<>/ ]{0,60}") {
        let (local, dir) = ctx_bits();
        let author = UserRef::new(UserId(1), Domain::new("a.example"));
        let post = Post::stub(PostId(1), author, SimTime(0), raw.clone());
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        let once = NormalizeMarkupPolicy
            .filter(&ctx, Activity::create(ActivityId(1), post))
            .expect_pass();
        let c1 = once.note().unwrap().content.clone();
        prop_assert!(c1.len() <= raw.len());
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        let twice = NormalizeMarkupPolicy.filter(&ctx, once).expect_pass();
        prop_assert_eq!(&c1, &twice.note().unwrap().content);
        prop_assert!(!c1.contains('<') || !c1.contains('>') || raw.find('<') > raw.find('>'));
    }

    /// Hellthread verdicts are monotone in the mention count: if a post
    /// with n mentions is rejected, any post with more mentions is too.
    #[test]
    fn hellthread_monotone(n in 0usize..40) {
        let (local, dir) = ctx_bits();
        let p = HellthreadPolicy::default();
        let author = UserRef::new(UserId(1), Domain::new("a.example"));
        let verdict_at = |k: usize| {
            let mut post = Post::stub(PostId(1), author.clone(), SimTime(0), "x");
            for i in 0..k {
                post.mentions.push(UserRef::new(UserId(i as u64), Domain::new("m.example")));
            }
            let ctx = PolicyContext::new(&local, SimTime(0), &dir);
            p.filter(&ctx, Activity::create(ActivityId(1), post)).is_pass()
        };
        if !verdict_at(n) {
            prop_assert!(!verdict_at(n + 1), "rejection must be monotone");
        }
    }

    /// Keyword Replace eliminates the pattern: after filtering, a
    /// case-insensitive search no longer finds it (when the replacement
    /// doesn't reintroduce it).
    #[test]
    fn keyword_replace_eliminates_pattern(
        body in "[a-f ]{0,40}",
        pattern in "[a-f]{2,6}",
    ) {
        let (local, dir) = ctx_bits();
        let p = KeywordPolicy::new(vec![KeywordRule::new(
            pattern.clone(),
            KeywordAction::Replace("XX".into()),
        )]);
        let author = UserRef::new(UserId(1), Domain::new("a.example"));
        let post = Post::stub(PostId(1), author, SimTime(0), body);
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        let out = p
            .filter(&ctx, Activity::create(ActivityId(1), post))
            .expect_pass();
        let content = out.note().unwrap().content.to_ascii_lowercase();
        prop_assert!(!content.contains(&pattern.to_ascii_lowercase()));
    }

    /// Pipeline trace length never exceeds the number of policies, and
    /// ends with the rejecting policy on rejection.
    #[test]
    fn trace_is_well_formed(post in arb_post(), drop_everything in any::<bool>()) {
        let (local, dir) = ctx_bits();
        let mut pipeline = MrfPipeline::new().with(Arc::new(NoOpPolicy));
        if drop_everything {
            pipeline.push(Arc::new(crate::mrf::policies::DropPolicy));
        }
        pipeline.push(Arc::new(NoOpPolicy));
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        let out = pipeline.filter(&ctx, Activity::create(ActivityId(1), post));
        prop_assert!(out.trace.len() <= pipeline.len());
        if let Some(reason) = out.rejection() {
            prop_assert_eq!(reason.policy, PolicyKind::Drop);
            let last = out.trace.last().unwrap();
            prop_assert!(matches!(
                last.decision,
                crate::mrf::PolicyDecision::Rejected(_)
            ));
        } else {
            prop_assert_eq!(out.trace.len(), pipeline.len());
        }
    }

    /// `filter_fast` agrees with `filter` on every catalog policy:
    /// identical accept/reject decision and identical surviving activity
    /// (rewrites included), for arbitrary posts through a pipeline built
    /// from every instantiable policy in the catalog.
    #[test]
    fn filter_fast_agrees_with_filter(
        post in arb_post(),
        subset_mask in any::<u64>(),
        reject_origin in any::<bool>(),
    ) {
        let (local, dir) = ctx_bits();
        let catalog = crate::catalog::PolicyCatalog::global();
        let mut config = crate::config::InstanceModerationConfig::default();
        for (i, entry) in catalog.entries().iter().enumerate() {
            if subset_mask & (1 << (i % 64)) != 0 {
                config.enable(entry.kind);
            }
        }
        if reject_origin {
            let mut simple = SimplePolicy::new();
            simple.add_target(SimpleAction::Reject, post.author.domain.clone());
            config.set_simple(simple);
        }
        let pipeline = config.build_pipeline();
        let act = Activity::create(ActivityId(1), post);
        let ctx1 = PolicyContext::new(&local, SimTime(0), &dir);
        let traced = pipeline.filter(&ctx1, act.clone());
        let ctx2 = PolicyContext::new(&local, SimTime(0), &dir);
        let fast = pipeline.filter_fast(&ctx2, act);
        match (&traced.verdict, &fast) {
            (PolicyVerdict::Pass(a), PolicyVerdict::Pass(b)) => {
                prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
            (PolicyVerdict::Reject(a), PolicyVerdict::Reject(b)) => {
                prop_assert_eq!(a, b);
            }
            _ => prop_assert!(
                false,
                "filter/filter_fast verdicts diverge: {:?} vs {:?}",
                traced.verdict,
                fast
            ),
        }
    }

    /// `filter_fast_ref` agrees with `filter_fast` on every catalog
    /// policy: a `Pass` from the zero-clone path implies the cloning
    /// path passes *and* leaves the stamped activity byte-identical (no
    /// rewrite was needed after all); a `Reject` implies the cloning
    /// path rejects via the same policy; `NeedsClone` defers to the
    /// cloning path by construction, so there is nothing to cross-check.
    #[test]
    fn filter_fast_ref_agrees_with_filter_fast(
        post in arb_post(),
        subset_mask in any::<u64>(),
        reject_origin in any::<bool>(),
        published in 0u64..10_000,
    ) {
        use crate::mrf::RefVerdict;
        let (local, dir) = ctx_bits();
        let catalog = crate::catalog::PolicyCatalog::global();
        let mut config = crate::config::InstanceModerationConfig::default();
        for (i, entry) in catalog.entries().iter().enumerate() {
            if subset_mask & (1 << (i % 64)) != 0 {
                config.enable(entry.kind);
            }
        }
        if reject_origin {
            let mut simple = SimplePolicy::new();
            simple.add_target(SimpleAction::Reject, post.author.domain.clone());
            config.set_simple(simple);
        }
        let pipeline = config.build_pipeline();
        let act = Activity::create(ActivityId(1), post);
        let published = SimTime(published);
        let ctx1 = PolicyContext::new(&local, published, &dir);
        let by_ref = pipeline.filter_fast_ref(&ctx1, &act, published);
        // The cloning side sees exactly what the engine's fallback
        // builds: the template clone stamped with `published`.
        let mut stamped = act.clone();
        stamped.published = published;
        if let Some(p) = stamped.note_mut() {
            p.created = published;
        }
        let ctx2 = PolicyContext::new(&local, published, &dir);
        let cloned = pipeline.filter_fast(&ctx2, stamped.clone());
        match by_ref {
            RefVerdict::Pass => match cloned {
                PolicyVerdict::Pass(out) => prop_assert_eq!(
                    format!("{stamped:?}"),
                    format!("{out:?}"),
                    "zero-clone Pass must mean no rewrite was needed"
                ),
                PolicyVerdict::Reject(r) => prop_assert!(
                    false,
                    "ref path passed but cloning path rejected: {:?}",
                    r
                ),
            },
            RefVerdict::Reject(kind) => match cloned {
                PolicyVerdict::Reject(reason) => prop_assert_eq!(kind, reason.policy),
                PolicyVerdict::Pass(_) => prop_assert!(
                    false,
                    "ref path rejected via {:?} but cloning path passed",
                    kind
                ),
            },
            RefVerdict::NeedsClone => {}
        }
    }

    /// `filter_fast_ref` keeps the same three-way contract when accounts
    /// carry MRF tags: every tag constant lands on a drawn author and a
    /// drawn follow target, and `Create`/`Follow` activities from local
    /// and remote origins run through TagPolicy, alone or with a random
    /// slice of the catalog (which often rejects or rewrites first). A
    /// small account pool makes tag hits common, so `TagPolicy`'s tagged
    /// branches — which `NullActorDirectory` never reaches — are
    /// exercised on both paths.
    #[test]
    fn filter_fast_ref_agrees_with_filter_fast_on_tagged_accounts(
        post in arb_post(),
        subset_mask in proptest::option::of(any::<u64>()),
        tagged_authors in proptest::collection::vec(0u64..4, MRF_TAGS.len()..MRF_TAGS.len() + 1),
        tagged_targets in proptest::collection::vec(0u64..4, MRF_TAGS.len()..MRF_TAGS.len() + 1),
        author in 0u64..4,
        target in 0u64..4,
        local_origin in any::<bool>(),
        media in proptest::option::of(any::<bool>()),
        published in 0u64..10_000,
    ) {
        let local = Domain::new("home.example");
        let origin = if local_origin { local.clone() } else { Domain::new("remote.example") };
        let account = |id: u64, domain: &Domain| UserRef::new(UserId(id), domain.clone());
        let dir = TaggedDirectory::new(
            &tagged_authors.iter().map(|&id| account(id, &origin)).collect::<Vec<_>>(),
            &tagged_targets.iter().map(|&id| account(id, &local)).collect::<Vec<_>>(),
        );
        let catalog = crate::catalog::PolicyCatalog::global();
        let mut config = crate::config::InstanceModerationConfig::default();
        for (i, entry) in catalog.entries().iter().enumerate() {
            if subset_mask.is_some_and(|mask| mask & (1 << (i % 64)) != 0) {
                config.enable(entry.kind);
            }
        }
        config.enable(PolicyKind::Tag);
        let pipeline = config.build_pipeline();
        let published = SimTime(published);

        let mut post = post;
        post.author = account(author, &origin);
        if let Some(sensitive) = media {
            post.media.push(crate::model::MediaAttachment {
                host: origin.clone(),
                kind: crate::model::MediaKind::Image,
                sensitive,
            });
        }
        let create = Activity::create(ActivityId(1), post);
        let follow = Activity::follow(
            ActivityId(2),
            account(author, &origin),
            account(target, &local),
            published,
        );
        for act in [create, follow] {
            let ctx1 = PolicyContext::new(&local, published, &dir);
            let by_ref = pipeline.filter_fast_ref(&ctx1, &act, published);
            let mut stamped = act.clone();
            stamped.published = published;
            if let Some(p) = stamped.note_mut() {
                p.created = published;
            }
            let ctx2 = PolicyContext::new(&local, published, &dir);
            match (by_ref, pipeline.filter_fast(&ctx2, stamped.clone())) {
                (RefVerdict::Pass, PolicyVerdict::Pass(out)) => prop_assert_eq!(
                    format!("{stamped:?}"),
                    format!("{out:?}"),
                    "zero-clone Pass must mean no rewrite was needed"
                ),
                (RefVerdict::Reject(kind), PolicyVerdict::Reject(reason)) => {
                    prop_assert_eq!(kind, reason.policy)
                }
                (RefVerdict::NeedsClone, _) => {}
                (by_ref, cloned) => prop_assert!(
                    false,
                    "{:?}: ref path said {:?} but cloning path gave {:?}",
                    act.kind,
                    by_ref,
                    cloned
                ),
            }
        }
    }

    /// `filter_fast` agrees with `filter` on every *partially rolled
    /// out* pipeline: a staged rollout grows an instance's config by
    /// repeated `SimplePolicy::merge` (one wave at a time, exactly what
    /// the dynamics engine's `AdoptWave` replays), and the compiled
    /// pipeline after every wave must keep the two filter paths in
    /// lockstep — identical verdict and identical surviving activity.
    #[test]
    fn filter_fast_agrees_with_filter_across_rollout_waves(
        post in arb_post(),
        reject_domains in proptest::collection::vec("[a-z]{2,6}\\.[a-z]{2,3}", 0..9),
        nsfw_domains in proptest::collection::vec("[a-z]{2,6}\\.[a-z]{2,3}", 0..5),
        target_origin in any::<bool>(),
        extra_kinds_mask in any::<u64>(),
        waves in 1_usize..6,
    ) {
        use crate::rollout::PolicyRollout;
        use crate::time::SimDuration;

        let (local, dir) = ctx_bits();
        // The final config a rollout converges to: a SimplePolicy with
        // arbitrary reject / media-NSFW lists (optionally including the
        // post's own origin, so both verdicts get exercised) plus a
        // random slice of the catalog.
        let mut simple = SimplePolicy::new();
        for d in &reject_domains {
            simple.add_target(SimpleAction::Reject, Domain::new(d.clone()));
        }
        if target_origin {
            simple.add_target(SimpleAction::Reject, post.author.domain.clone());
        }
        for d in &nsfw_domains {
            simple.add_target(SimpleAction::MediaNsfw, Domain::new(d.clone()));
        }
        let mut target = crate::config::InstanceModerationConfig::pleroma_default();
        for (i, entry) in crate::catalog::PolicyCatalog::global().entries().iter().enumerate() {
            if extra_kinds_mask & (1 << (i % 64)) != 0 {
                target.enable(entry.kind);
            }
        }
        target.set_simple(simple);

        // Replay the staged adoption: merge wave after wave, checking
        // the two filter paths against each other at every stage.
        let rollout = PolicyRollout::staged(&target, waves, SimDuration::hours(8));
        prop_assert_eq!(rollout.waves.len(), waves);
        let mut config = crate::config::InstanceModerationConfig::default();
        for (w, wave) in rollout.waves.iter().enumerate() {
            config.apply_wave(wave);
            let pipeline = config.build_pipeline();
            let act = Activity::create(ActivityId(1), post.clone());
            let ctx1 = PolicyContext::new(&local, SimTime(0), &dir);
            let traced = pipeline.filter(&ctx1, act.clone());
            let ctx2 = PolicyContext::new(&local, SimTime(0), &dir);
            let fast = pipeline.filter_fast(&ctx2, act);
            match (&traced.verdict, &fast) {
                (PolicyVerdict::Pass(a), PolicyVerdict::Pass(b)) => {
                    prop_assert_eq!(format!("{a:?}"), format!("{b:?}"), "wave {}", w);
                }
                (PolicyVerdict::Reject(a), PolicyVerdict::Reject(b)) => {
                    prop_assert_eq!(a, b, "wave {}", w);
                }
                _ => prop_assert!(
                    false,
                    "filter/filter_fast diverged after wave {}: {:?} vs {:?}",
                    w,
                    traced.verdict,
                    fast
                ),
            }
        }
        // The fully merged config rejects the origin iff the target does
        // (local activities are exempt from SimplePolicy, so skip the
        // astronomically unlikely local-origin draw).
        if target_origin && post.author.domain.as_str() != "home.example" {
            let ctx = PolicyContext::new(&local, SimTime(0), &dir);
            let act = Activity::create(ActivityId(1), post.clone());
            prop_assert!(!config.build_pipeline().filter_fast(&ctx, act).is_pass());
        }
    }

    /// Differential check of the incremental (delta) compilation path:
    /// a random sequence of control-phase events — rollout-wave merges,
    /// single cascade blocks, policy enables — applied to a *live*
    /// pipeline via `apply_wave_compiled` / `enable_compiled` /
    /// `add_simple_target` must yield a pipeline whose `filter` *and*
    /// `filter_fast` verdicts on arbitrary posts are identical to a
    /// pipeline freshly `build_pipeline()`d from the equivalently
    /// mutated config — at every step, including after the pipeline has
    /// been cloned (the copy-on-write branch of the delta API).
    #[test]
    fn delta_api_matches_reference_compilation(
        post in arb_post(),
        ops in proptest::collection::vec(
            prop_oneof![
                // A rollout-wave merge: up to 4 (action, domain) targets.
                proptest::collection::vec(
                    (0usize..SimpleAction::ALL.len(), "[a-e]{2,4}\\.[a-z]{2,3}"),
                    1..5
                ).prop_map(DeltaOp::Merge),
                // A cascade imitation block: one reject edge.
                "[a-e]{2,4}\\.[a-z]{2,3}".prop_map(DeltaOp::Block),
                // An admin enabling one more catalog policy.
                (0usize..64).prop_map(DeltaOp::Enable),
            ],
            1..16,
        ),
        target_origin_at in proptest::option::of(0usize..16),
        clone_at in proptest::option::of(0usize..16),
    ) {
        use crate::rollout::RolloutWave;

        let (local, dir) = ctx_bits();
        let catalog = crate::catalog::PolicyCatalog::global();
        let mut live = crate::config::InstanceModerationConfig::pleroma_default();
        let mut pipeline = live.build_pipeline();
        let mut reference = live.clone();
        // Clones held across deltas force the copy-on-write branch.
        let mut held_clone = None;

        for (step, op) in ops.into_iter().enumerate() {
            match op {
                DeltaOp::Merge(targets) => {
                    let mut addition = SimplePolicy::new();
                    for (a, d) in &targets {
                        addition.add_target(SimpleAction::ALL[*a], Domain::new(d.clone()));
                    }
                    if target_origin_at == Some(step) {
                        addition.add_target(
                            SimpleAction::Reject,
                            post.author.domain.clone(),
                        );
                    }
                    let wave = RolloutWave {
                        offset: crate::time::SimDuration(0),
                        enable: Vec::new(),
                        simple: Some(addition),
                    };
                    live.apply_wave_compiled(&wave, &mut pipeline);
                    reference.apply_wave(&wave);
                }
                DeltaOp::Block(domain) => {
                    // Mirrors the dynamics defederate site: enable the
                    // Simple stage if needed, then one-target delta.
                    live.enable_compiled(PolicyKind::Simple, &mut pipeline);
                    live.simple
                        .get_or_insert_with(SimplePolicy::new)
                        .add_target(SimpleAction::Reject, Domain::new(domain.clone()));
                    prop_assert!(pipeline.add_simple_target(
                        SimpleAction::Reject,
                        Domain::new(domain.clone()),
                    ));
                    reference.enable(PolicyKind::Simple);
                    reference
                        .simple
                        .get_or_insert_with(SimplePolicy::new)
                        .add_target(SimpleAction::Reject, Domain::new(domain));
                }
                DeltaOp::Enable(i) => {
                    let kind = catalog.entries()[i % catalog.entries().len()].kind;
                    live.enable_compiled(kind, &mut pipeline);
                    reference.enable(kind);
                }
            }
            if clone_at == Some(step) {
                held_clone = Some(pipeline.clone());
            }
            // The delta-maintained pipeline must match a fresh reference
            // compile on both filter paths, every step of the way.
            let fresh = reference.build_pipeline();
            prop_assert_eq!(pipeline.kinds(), fresh.kinds(), "step {}", step);
            let act = Activity::create(ActivityId(1), post.clone());
            let ctx1 = PolicyContext::new(&local, SimTime(0), &dir);
            let ctx2 = PolicyContext::new(&local, SimTime(0), &dir);
            let slow = pipeline.filter(&ctx1, act.clone());
            let fresh_slow = fresh.filter(&ctx2, act.clone());
            prop_assert_eq!(
                format!("{:?}", slow.verdict),
                format!("{:?}", fresh_slow.verdict),
                "filter diverged at step {}",
                step
            );
            let ctx3 = PolicyContext::new(&local, SimTime(0), &dir);
            let ctx4 = PolicyContext::new(&local, SimTime(0), &dir);
            let fast = pipeline.filter_fast(&ctx3, act.clone());
            let fresh_fast = fresh.filter_fast(&ctx4, act);
            prop_assert_eq!(
                format!("{fast:?}"),
                format!("{fresh_fast:?}"),
                "filter_fast diverged at step {}",
                step
            );
        }
        drop(held_clone);
    }

    /// SimplePolicy events() always agrees with targets(): the number of
    /// events equals the sum of per-action list lengths, and removal
    /// shrinks it by exactly one.
    #[test]
    fn simple_policy_event_accounting(
        domains in proptest::collection::vec("[a-z]{2,6}\\.[a-z]{2,3}", 1..12),
    ) {
        let mut simple = SimplePolicy::new();
        for (i, d) in domains.iter().enumerate() {
            let action = SimpleAction::ALL[i % SimpleAction::ALL.len()];
            simple.add_target(action, Domain::new(d.clone()));
        }
        let total: usize = SimpleAction::ALL
            .iter()
            .map(|&a| simple.targets(a).len())
            .sum();
        prop_assert_eq!(simple.events().count(), total);
        // Remove the first event and re-check.
        let (action, domain) = {
            let (a, d) = simple.events().next().unwrap();
            (a, d.clone())
        };
        prop_assert!(simple.remove_target(action, &domain));
        prop_assert_eq!(simple.events().count(), total - 1);
    }
}
