//! `TagPolicy` — per-user moderation via admin-applied MRF tags.
//!
//! §4.1: *"The TagPolicy applies policies to individual users based on tags
//! but does not entirely stop the flow of any material between instances.
//! For example, it allows marking posts from individual users as Not Safe
//! For Work (NSFW)."* Enabled on 33% of instances; the paper's §7 singles
//! it out as the building block for less destructive moderation.

use crate::catalog::PolicyKind;
use crate::id::UserRef;
use crate::model::{mrf_tags, Activity, ActivityKind, ActivityPayload, Visibility};
use crate::mrf::context::PolicyContext;
use crate::mrf::verdict::{PolicyVerdict, RejectReason};
use crate::mrf::{MrfPolicy, RefVerdict};
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Implementation of Pleroma's `TagPolicy`. Stateless: the tags live on the
/// accounts (applied by the local admin) and are read through the
/// [`ActorDirectory`](crate::mrf::ActorDirectory).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct TagPolicy;

impl TagPolicy {
    fn reject(code: &'static str, detail: String) -> PolicyVerdict {
        PolicyVerdict::Reject(RejectReason::new(PolicyKind::Tag, code, detail))
    }

    /// The refusal a follow meets, if its target carries a subscription
    /// tag that applies: the followed account, the reject code and the
    /// reason's wording. Subscription tags are applied to the *target*
    /// account.
    fn refused_follow<'a>(
        ctx: &PolicyContext<'_>,
        activity: &'a Activity,
    ) -> Option<(&'a UserRef, &'static str, &'static str)> {
        let ActivityPayload::FollowRequest { target } = &activity.payload else {
            return None;
        };
        let tags = ctx.actors.mrf_tags(target);
        if tags.iter().any(|t| t == mrf_tags::DISABLE_ANY_SUBSCRIPTION) {
            return Some((target, "subscription_disabled", "does not accept follows"));
        }
        if tags
            .iter()
            .any(|t| t == mrf_tags::DISABLE_REMOTE_SUBSCRIPTION)
            && !ctx.is_local(&activity.actor.domain)
        {
            return Some((
                target,
                "remote_subscription_disabled",
                "does not accept remote follows",
            ));
        }
        None
    }
}

impl MrfPolicy for TagPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Tag
    }

    fn filter(&self, ctx: &PolicyContext<'_>, mut activity: Activity) -> PolicyVerdict {
        match activity.kind {
            ActivityKind::Create => {
                let tags = ctx.actors.mrf_tags(&activity.actor);
                if tags.is_empty() {
                    return PolicyVerdict::Pass(activity);
                }
                let Some(post) = activity.note_mut() else {
                    return PolicyVerdict::Pass(activity);
                };
                for tag in &tags {
                    match tag.as_str() {
                        mrf_tags::MEDIA_FORCE_NSFW => post.force_sensitive(),
                        mrf_tags::MEDIA_STRIP => post.strip_media(),
                        mrf_tags::FORCE_UNLISTED if post.visibility == Visibility::Public => {
                            post.visibility = Visibility::Unlisted;
                        }
                        mrf_tags::SANDBOX if post.visibility.is_public_ish() => {
                            post.visibility = Visibility::FollowersOnly;
                        }
                        _ => {}
                    }
                }
                PolicyVerdict::Pass(activity)
            }
            ActivityKind::Follow => match Self::refused_follow(ctx, &activity) {
                Some((target, code, what)) => Self::reject(code, format!("{target} {what}")),
                None => PolicyVerdict::Pass(activity),
            },
            _ => PolicyVerdict::Pass(activity),
        }
    }

    /// Borrow-based judgement. Only a `Create` from a tagged author can be
    /// rewritten; a follow is refused exactly where [`filter`] refuses it;
    /// nothing else is touched. Under an untagged directory (the dynamics
    /// engine's) every verdict stays on this path.
    ///
    /// [`filter`]: MrfPolicy::filter
    fn judge_ref(&self, ctx: &PolicyContext<'_>, activity: &Activity, _: SimTime) -> RefVerdict {
        match activity.kind {
            ActivityKind::Create
                if activity.note().is_some()
                    && !ctx.actors.mrf_tags(&activity.actor).is_empty() =>
            {
                RefVerdict::NeedsClone
            }
            ActivityKind::Follow if Self::refused_follow(ctx, activity).is_some() => {
                RefVerdict::Reject(PolicyKind::Tag)
            }
            _ => RefVerdict::Pass,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ActivityId, Domain, PostId, UserId, UserRef};
    use crate::model::{MediaAttachment, MediaKind, Post};
    use crate::mrf::context::ActorDirectory;
    use crate::time::SimTime;
    use std::collections::HashMap;

    /// Directory with per-user tags for tests.
    #[derive(Default)]
    struct TagDir {
        tags: HashMap<UserId, Vec<String>>,
    }

    impl ActorDirectory for TagDir {
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
            self.tags.get(&actor.user).cloned().unwrap_or_default()
        }
        fn report_count(&self, _: &UserRef) -> u32 {
            0
        }
    }

    fn tagged_dir(user: UserId, tag: &str) -> TagDir {
        let mut d = TagDir::default();
        d.tags.insert(user, vec![tag.to_string()]);
        d
    }

    fn post_with_media(user: UserId) -> Activity {
        let author = UserRef::new(user, Domain::new("remote.example"));
        let mut post = Post::stub(PostId(1), author, SimTime(0), "text");
        post.media.push(MediaAttachment {
            host: Domain::new("remote.example"),
            kind: MediaKind::Image,
            sensitive: false,
        });
        Activity::create(ActivityId(1), post)
    }

    fn run(dir: &TagDir, act: Activity) -> PolicyVerdict {
        let local = Domain::new("home.example");
        let ctx = PolicyContext::new(&local, SimTime(100), dir);
        TagPolicy.filter(&ctx, act)
    }

    #[test]
    fn untagged_users_pass_untouched() {
        let dir = TagDir::default();
        let v = run(&dir, post_with_media(UserId(1)));
        let a = v.expect_pass();
        assert!(!a.note().unwrap().sensitive);
        assert!(a.note().unwrap().has_media());
    }

    #[test]
    fn force_nsfw_tag() {
        let dir = tagged_dir(UserId(1), mrf_tags::MEDIA_FORCE_NSFW);
        let v = run(&dir, post_with_media(UserId(1)));
        assert!(v.expect_pass().note().unwrap().sensitive);
    }

    #[test]
    fn media_strip_tag() {
        let dir = tagged_dir(UserId(1), mrf_tags::MEDIA_STRIP);
        let v = run(&dir, post_with_media(UserId(1)));
        assert!(!v.expect_pass().note().unwrap().has_media());
    }

    #[test]
    fn force_unlisted_tag() {
        let dir = tagged_dir(UserId(1), mrf_tags::FORCE_UNLISTED);
        let v = run(&dir, post_with_media(UserId(1)));
        assert_eq!(
            v.expect_pass().note().unwrap().visibility,
            Visibility::Unlisted
        );
    }

    #[test]
    fn sandbox_tag_forces_followers_only() {
        let dir = tagged_dir(UserId(1), mrf_tags::SANDBOX);
        let v = run(&dir, post_with_media(UserId(1)));
        assert_eq!(
            v.expect_pass().note().unwrap().visibility,
            Visibility::FollowersOnly
        );
    }

    #[test]
    fn disable_any_subscription_rejects_follows() {
        let target = UserRef::new(UserId(7), Domain::new("home.example"));
        let dir = tagged_dir(UserId(7), mrf_tags::DISABLE_ANY_SUBSCRIPTION);
        let follow = Activity::follow(
            ActivityId(9),
            UserRef::new(UserId(1), Domain::new("remote.example")),
            target,
            SimTime(0),
        );
        assert_eq!(
            run(&dir, follow).expect_reject().code,
            "subscription_disabled"
        );
    }

    #[test]
    fn disable_remote_subscription_allows_local_follows() {
        let target = UserRef::new(UserId(7), Domain::new("home.example"));
        let dir = tagged_dir(UserId(7), mrf_tags::DISABLE_REMOTE_SUBSCRIPTION);
        // Remote follower: rejected.
        let remote_follow = Activity::follow(
            ActivityId(9),
            UserRef::new(UserId(1), Domain::new("remote.example")),
            target.clone(),
            SimTime(0),
        );
        assert!(!run(&dir, remote_follow).is_pass());
        // Local follower: fine.
        let local_follow = Activity::follow(
            ActivityId(10),
            UserRef::new(UserId(2), Domain::new("home.example")),
            target,
            SimTime(0),
        );
        assert!(run(&dir, local_follow).is_pass());
    }

    #[test]
    fn judge_ref_borrows_unless_a_tag_can_rewrite() {
        let local = Domain::new("home.example");
        let judge = |dir: &TagDir, act: &Activity| {
            let ctx = PolicyContext::new(&local, SimTime(100), dir);
            TagPolicy.judge_ref(&ctx, act, SimTime(100))
        };
        let dir = tagged_dir(UserId(1), mrf_tags::MEDIA_STRIP);
        assert_eq!(
            judge(&dir, &post_with_media(UserId(1))),
            RefVerdict::NeedsClone
        );
        assert_eq!(judge(&dir, &post_with_media(UserId(2))), RefVerdict::Pass);

        let target = UserRef::new(UserId(7), Domain::new("home.example"));
        let dir = tagged_dir(UserId(7), mrf_tags::DISABLE_REMOTE_SUBSCRIPTION);
        let follow_from = |domain: &str| {
            Activity::follow(
                ActivityId(9),
                UserRef::new(UserId(1), Domain::new(domain)),
                target.clone(),
                SimTime(0),
            )
        };
        assert_eq!(
            judge(&dir, &follow_from("remote.example")),
            RefVerdict::Reject(PolicyKind::Tag)
        );
        assert_eq!(judge(&dir, &follow_from("home.example")), RefVerdict::Pass);
    }
}
