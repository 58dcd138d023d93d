// Package actionlog implements the action-log substrate of the Inf2vec
// reproduction: the record of "user u performed action i at time t" tuples
// that, together with the social graph, drives every influence-learning
// method in the paper.
//
// The central type is Log, a set of diffusion episodes. Each episode D_i
// collects the users who adopted item i in chronological order (the paper's
// D_i = {(u, t_u^i)}). Logs are immutable once constructed and safe for
// concurrent reads.
//
// For the streaming pipeline, Cursor is the durable resume state: a
// 24-byte file framed by internal/frame (magic "I2VCUR", CRC-32 trailer).
// The pipeline's publish intent is the same format at another path. A
// restart reads both, so LoadCursor reports a present but corrupt file as
// ErrBadCursor, distinct from a missing one.
package actionlog

import (
	"errors"
	"fmt"
	"sort"

	"inf2vec/internal/rng"
)

// Action is one raw log tuple: user performed the action identified by Item
// at Time.
type Action struct {
	User int32
	Item int32
	Time float64
}

// Record is one adoption inside an episode.
type Record struct {
	User int32
	Time float64
}

// Episode is one diffusion episode D_i: every adoption of a single item, in
// chronological order. A user appears at most once (their earliest
// adoption).
type Episode struct {
	Item    int32
	Records []Record
}

// Len returns the number of adoptions in the episode.
func (e *Episode) Len() int { return len(e.Records) }

// Users returns the adopting users in chronological order as a fresh slice.
func (e *Episode) Users() []int32 {
	us := make([]int32, len(e.Records))
	for i, r := range e.Records {
		us[i] = r.User
	}
	return us
}

// Log is an immutable collection of diffusion episodes over a fixed user
// universe.
type Log struct {
	numUsers int32
	episodes []Episode
}

// ErrNoUsers is returned when a log is constructed with a non-positive user
// universe.
var ErrNoUsers = errors.New("actionlog: user universe must be positive")

// FromActions builds a Log from raw tuples. Episodes are grouped by item,
// sorted chronologically (ties broken by user ID for determinism), and a
// user's duplicate adoptions of the same item are collapsed to the earliest.
// numUsers fixes the user universe; any action referencing a user outside
// [0, numUsers) is an error.
func FromActions(numUsers int32, actions []Action) (*Log, error) {
	if numUsers <= 0 {
		return nil, ErrNoUsers
	}
	byItem := make(map[int32][]Record)
	for i, a := range actions {
		if a.User < 0 || a.User >= numUsers {
			return nil, fmt.Errorf("actionlog: action %d: user %d outside [0,%d)", i, a.User, numUsers)
		}
		if a.Item < 0 {
			return nil, fmt.Errorf("actionlog: action %d: negative item %d", i, a.Item)
		}
		byItem[a.Item] = append(byItem[a.Item], Record{User: a.User, Time: a.Time})
	}
	items := make([]int32, 0, len(byItem))
	for it := range byItem {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })

	log := &Log{numUsers: numUsers, episodes: make([]Episode, 0, len(items))}
	for _, it := range items {
		recs := byItem[it]
		sort.Slice(recs, func(i, j int) bool {
			if recs[i].Time != recs[j].Time {
				return recs[i].Time < recs[j].Time
			}
			return recs[i].User < recs[j].User
		})
		// Keep only each user's earliest adoption.
		seen := make(map[int32]bool, len(recs))
		out := recs[:0]
		for _, r := range recs {
			if !seen[r.User] {
				seen[r.User] = true
				out = append(out, r)
			}
		}
		log.episodes = append(log.episodes, Episode{Item: it, Records: out})
	}
	return log, nil
}

// FromEpisodes builds a Log directly from pre-sorted episodes. It validates
// chronological order and user bounds.
func FromEpisodes(numUsers int32, eps []Episode) (*Log, error) {
	if numUsers <= 0 {
		return nil, ErrNoUsers
	}
	for _, e := range eps {
		seen := make(map[int32]bool, len(e.Records))
		for i, r := range e.Records {
			if r.User < 0 || r.User >= numUsers {
				return nil, fmt.Errorf("actionlog: episode %d: user %d outside [0,%d)", e.Item, r.User, numUsers)
			}
			if i > 0 && r.Time < e.Records[i-1].Time {
				return nil, fmt.Errorf("actionlog: episode %d: records out of chronological order at index %d", e.Item, i)
			}
			if seen[r.User] {
				return nil, fmt.Errorf("actionlog: episode %d: user %d appears twice", e.Item, r.User)
			}
			seen[r.User] = true
		}
	}
	return &Log{numUsers: numUsers, episodes: eps}, nil
}

// NumUsers returns the size of the user universe.
func (l *Log) NumUsers() int32 { return l.numUsers }

// NumEpisodes returns the number of episodes (distinct items with at least
// one adoption).
func (l *Log) NumEpisodes() int { return len(l.episodes) }

// NumActions returns the total number of adoptions across all episodes.
func (l *Log) NumActions() int64 {
	var n int64
	for i := range l.episodes {
		n += int64(len(l.episodes[i].Records))
	}
	return n
}

// Episode returns the i-th episode. The returned pointer shares the log's
// storage and must be treated as read-only.
func (l *Log) Episode(i int) *Episode { return &l.episodes[i] }

// Episodes calls fn for each episode in order.
func (l *Log) Episodes(fn func(e *Episode)) {
	for i := range l.episodes {
		fn(&l.episodes[i])
	}
}

// UserActionCounts returns, per user, the number of episodes the user
// appears in. Used for A_u in the ST baseline and for log statistics.
func (l *Log) UserActionCounts() []int64 {
	counts := make([]int64, l.numUsers)
	for i := range l.episodes {
		for _, r := range l.episodes[i].Records {
			counts[r.User]++
		}
	}
	return counts
}

// Split partitions the episodes at random (seeded) into train/tune/test
// logs with the given fractions. Fractions must be non-negative and sum to
// at most 1; the test split receives the remainder. The paper's protocol is
// Split(seed, 0.8, 0.1): 80% train, 10% tune, 10% test.
func (l *Log) Split(seed uint64, trainFrac, tuneFrac float64) (train, tune, test *Log, err error) {
	if trainFrac < 0 || tuneFrac < 0 || trainFrac+tuneFrac > 1 {
		return nil, nil, nil, fmt.Errorf("actionlog: bad split fractions %v/%v", trainFrac, tuneFrac)
	}
	r := rng.New(seed)
	perm := r.Perm(len(l.episodes))
	nTrain := int(float64(len(perm)) * trainFrac)
	nTune := int(float64(len(perm)) * tuneFrac)

	pick := func(idx []int) *Log {
		eps := make([]Episode, len(idx))
		for i, j := range idx {
			eps[i] = l.episodes[j]
		}
		sort.Slice(eps, func(a, b int) bool { return eps[a].Item < eps[b].Item })
		return &Log{numUsers: l.numUsers, episodes: eps}
	}
	train = pick(perm[:nTrain])
	tune = pick(perm[nTrain : nTrain+nTune])
	test = pick(perm[nTrain+nTune:])
	return train, tune, test, nil
}

// Stats summarizes a log for Table I style reporting.
type Stats struct {
	NumUsers    int32
	NumItems    int
	NumActions  int64
	MeanEpisode float64 // mean adoptions per episode
	MaxEpisode  int     // largest episode
	ActiveUsers int32   // users with at least one action
}

// ComputeStats returns summary statistics of the log.
func (l *Log) ComputeStats() Stats {
	s := Stats{NumUsers: l.numUsers, NumItems: len(l.episodes)}
	counts := l.UserActionCounts()
	for _, c := range counts {
		if c > 0 {
			s.ActiveUsers++
		}
	}
	for i := range l.episodes {
		n := len(l.episodes[i].Records)
		s.NumActions += int64(n)
		if n > s.MaxEpisode {
			s.MaxEpisode = n
		}
	}
	if len(l.episodes) > 0 {
		s.MeanEpisode = float64(s.NumActions) / float64(len(l.episodes))
	}
	return s
}
