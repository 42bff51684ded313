//! Bot-related policies: `AntiFollowbotPolicy`, `ForceBotUnlistedPolicy`,
//! `AntiLinkSpamPolicy` and `FollowBotPolicy`.

use crate::catalog::PolicyKind;
use crate::id::UserRef;
use crate::model::{Activity, ActivityKind, Visibility};
use crate::mrf::context::{PolicyContext, SideEffect};
use crate::mrf::verdict::{PolicyVerdict, RejectReason};
use crate::mrf::{MrfPolicy, RefVerdict};
use crate::time::SimTime;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// `AntiFollowbotPolicy` — "Stop the automatic following of newly
/// discovered users" (Table 3; 51 instances). Rejects `Follow` requests
/// from actors flagged as bots (or with followbot-style handles).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct AntiFollowbotPolicy;

impl MrfPolicy for AntiFollowbotPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::AntiFollowbot
    }

    fn filter(&self, ctx: &PolicyContext<'_>, activity: Activity) -> PolicyVerdict {
        if activity.kind == ActivityKind::Follow && ctx.actors.is_bot(&activity.actor) {
            return PolicyVerdict::Reject(RejectReason::new(
                PolicyKind::AntiFollowbot,
                "followbot",
                format!("{} is a follow bot", activity.actor),
            ));
        }
        PolicyVerdict::Pass(activity)
    }

    fn judge_ref(&self, ctx: &PolicyContext<'_>, activity: &Activity, _: SimTime) -> RefVerdict {
        if activity.kind == ActivityKind::Follow && ctx.actors.is_bot(&activity.actor) {
            RefVerdict::Reject(PolicyKind::AntiFollowbot)
        } else {
            RefVerdict::Pass
        }
    }
}

/// `ForceBotUnlistedPolicy` — "Makes all bot posts disappear from public
/// timelines" (Table 3; 23 instances).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ForceBotUnlistedPolicy;

impl MrfPolicy for ForceBotUnlistedPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::ForceBotUnlisted
    }

    fn filter(&self, ctx: &PolicyContext<'_>, mut activity: Activity) -> PolicyVerdict {
        if ctx.actors.is_bot(&activity.actor) {
            if let Some(post) = activity.note_mut() {
                if post.visibility == Visibility::Public {
                    post.visibility = Visibility::Unlisted;
                }
            }
        }
        PolicyVerdict::Pass(activity)
    }

    fn judge_ref(&self, ctx: &PolicyContext<'_>, activity: &Activity, _: SimTime) -> RefVerdict {
        if ctx.actors.is_bot(&activity.actor)
            && activity
                .note()
                .is_some_and(|post| post.visibility == Visibility::Public)
        {
            RefVerdict::NeedsClone
        } else {
            RefVerdict::Pass
        }
    }
}

/// `AntiLinkSpamPolicy` — "Rejects posts from likely spambots by rejecting
/// posts from new users that contain links" (Table 3; 32 instances).
///
/// "New" follows Pleroma's heuristic: an account with zero followers is
/// treated as new; accounts whose follower count is unknown get the benefit
/// of the doubt.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct AntiLinkSpamPolicy;

impl MrfPolicy for AntiLinkSpamPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::AntiLinkSpam
    }

    fn filter(&self, ctx: &PolicyContext<'_>, activity: Activity) -> PolicyVerdict {
        if let Some(post) = activity.note() {
            if post.has_links && ctx.actors.followers(&activity.actor) == Some(0) {
                return PolicyVerdict::Reject(RejectReason::new(
                    PolicyKind::AntiLinkSpam,
                    "link_spam",
                    format!("new user {} posted links", activity.actor),
                ));
            }
        }
        PolicyVerdict::Pass(activity)
    }

    fn judge_ref(&self, ctx: &PolicyContext<'_>, activity: &Activity, _: SimTime) -> RefVerdict {
        if let Some(post) = activity.note() {
            if post.has_links && ctx.actors.followers(&activity.actor) == Some(0) {
                return RefVerdict::Reject(PolicyKind::AntiLinkSpam);
            }
        }
        RefVerdict::Pass
    }
}

/// `FollowBotPolicy` — "Automatically follows newly discovered users from
/// the specified bot account" (Table 3; 2 instances).
///
/// Stateful: remembers which actors it has already seen so each discovered
/// account is followed exactly once.
#[derive(Debug)]
pub struct FollowBotPolicy {
    /// The local bot account that performs the follows.
    pub bot: UserRef,
    seen: Mutex<HashSet<UserRef>>,
}

impl FollowBotPolicy {
    /// Builds the policy around the given local bot account.
    pub fn new(bot: UserRef) -> Self {
        FollowBotPolicy {
            bot,
            seen: Mutex::new(HashSet::new()),
        }
    }

    /// Number of distinct actors discovered so far.
    pub fn discovered(&self) -> usize {
        self.seen.lock().len()
    }
}

impl MrfPolicy for FollowBotPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::FollowBot
    }

    fn filter(&self, ctx: &PolicyContext<'_>, activity: Activity) -> PolicyVerdict {
        if activity.kind == ActivityKind::Create && !ctx.is_local(&activity.actor.domain) {
            let mut seen = self.seen.lock();
            if seen.insert(activity.actor.clone()) {
                ctx.emit(SideEffect::AutoFollowed {
                    target: activity.actor.clone(),
                });
            }
        }
        PolicyVerdict::Pass(activity)
    }

    fn judge_ref(&self, ctx: &PolicyContext<'_>, activity: &Activity, _: SimTime) -> RefVerdict {
        if activity.kind == ActivityKind::Create && !ctx.is_local(&activity.actor.domain) {
            let mut seen = self.seen.lock();
            if seen.insert(activity.actor.clone()) {
                ctx.emit(SideEffect::AutoFollowed {
                    target: activity.actor.clone(),
                });
            }
        }
        RefVerdict::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ActivityId, Domain, PostId, UserId};
    use crate::model::Post;
    use crate::mrf::context::ActorDirectory;
    use crate::time::SimTime;

    /// Directory where user 1 is a bot and user 2 has zero followers.
    struct BotDir;
    impl ActorDirectory for BotDir {
        fn is_bot(&self, actor: &UserRef) -> bool {
            actor.user == UserId(1)
        }
        fn followers(&self, actor: &UserRef) -> Option<u32> {
            match actor.user {
                UserId(2) => Some(0),
                UserId(3) => Some(25),
                _ => None,
            }
        }
        fn created(&self, _: &UserRef) -> Option<SimTime> {
            None
        }
        fn mrf_tags(&self, _: &UserRef) -> Vec<String> {
            Vec::new()
        }
        fn report_count(&self, _: &UserRef) -> u32 {
            0
        }
    }

    fn run_with_effects(p: &dyn MrfPolicy, act: Activity) -> (PolicyVerdict, Vec<SideEffect>) {
        let local = Domain::new("home.example");
        let dir = BotDir;
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        let v = p.filter(&ctx, act);
        (v, ctx.take_effects())
    }

    fn follow_from(user: u64) -> Activity {
        Activity::follow(
            ActivityId(1),
            UserRef::new(UserId(user), Domain::new("remote.example")),
            UserRef::new(UserId(50), Domain::new("home.example")),
            SimTime(0),
        )
    }

    fn create_from(user: u64, links: bool) -> Activity {
        let author = UserRef::new(UserId(user), Domain::new("remote.example"));
        let mut post = Post::stub(PostId(1), author, SimTime(0), "check this out");
        post.has_links = links;
        Activity::create(ActivityId(1), post)
    }

    #[test]
    fn anti_followbot_rejects_bot_follows() {
        let (v, _) = run_with_effects(&AntiFollowbotPolicy, follow_from(1));
        assert_eq!(v.expect_reject().code, "followbot");
        let (v, _) = run_with_effects(&AntiFollowbotPolicy, follow_from(3));
        assert!(v.is_pass(), "human follows pass");
    }

    #[test]
    fn anti_followbot_ignores_bot_posts() {
        let (v, _) = run_with_effects(&AntiFollowbotPolicy, create_from(1, false));
        assert!(v.is_pass(), "only Follow activities are screened");
    }

    #[test]
    fn force_bot_unlisted_delists_bot_posts() {
        let (v, _) = run_with_effects(&ForceBotUnlistedPolicy, create_from(1, false));
        assert_eq!(
            v.expect_pass().note().unwrap().visibility,
            Visibility::Unlisted
        );
        let (v, _) = run_with_effects(&ForceBotUnlistedPolicy, create_from(3, false));
        assert_eq!(
            v.expect_pass().note().unwrap().visibility,
            Visibility::Public
        );
    }

    #[test]
    fn anti_link_spam_rejects_new_users_with_links() {
        // User 2: zero followers + links → reject.
        let (v, _) = run_with_effects(&AntiLinkSpamPolicy, create_from(2, true));
        assert_eq!(v.expect_reject().code, "link_spam");
        // Same user, no links → pass.
        let (v, _) = run_with_effects(&AntiLinkSpamPolicy, create_from(2, false));
        assert!(v.is_pass());
        // Established user with links → pass.
        let (v, _) = run_with_effects(&AntiLinkSpamPolicy, create_from(3, true));
        assert!(v.is_pass());
        // Unknown follower count → benefit of the doubt.
        let (v, _) = run_with_effects(&AntiLinkSpamPolicy, create_from(99, true));
        assert!(v.is_pass());
    }

    #[test]
    fn follow_bot_follows_each_new_actor_once() {
        let bot = UserRef::new(UserId(1000), Domain::new("home.example"));
        let p = FollowBotPolicy::new(bot);
        let (_, effects) = run_with_effects(&p, create_from(5, false));
        assert_eq!(effects.len(), 1);
        assert!(
            matches!(&effects[0], SideEffect::AutoFollowed { target } if target.user == UserId(5))
        );
        // Second post from the same actor: no new follow.
        let (_, effects) = run_with_effects(&p, create_from(5, false));
        assert!(effects.is_empty());
        assert_eq!(p.discovered(), 1);
    }

    #[test]
    fn follow_bot_ignores_local_actors() {
        let bot = UserRef::new(UserId(1000), Domain::new("home.example"));
        let p = FollowBotPolicy::new(bot);
        let author = UserRef::new(UserId(6), Domain::new("home.example"));
        let act = Activity::create(
            ActivityId(1),
            Post::stub(PostId(1), author, SimTime(0), "local"),
        );
        let (_, effects) = run_with_effects(&p, act);
        assert!(effects.is_empty());
    }
}
