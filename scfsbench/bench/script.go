package bench

import (
	"encoding/binary"
	"math/rand"
)

// ScriptRounds is how many rounds a script holds. A run that outlasts them
// starts over from the first: the script is a fixed function of the seed and
// never of how fast the program ran.
const ScriptRounds = 8

// Step is one script operation. Target picks the file or directory for the
// kinds that choose one at random; kinds that walk a pool round-robin
// (cold reads, share slots, scratch names) keep their cursor in the client.
type Step struct {
	Kind   Kind
	Target uint16
}

// Script is the operations of every client, by round.
type Script struct {
	Rounds [ScriptRounds][Clients][]Step
}

// Generate builds the script of a workload from a seed. It is called before
// the timed phase and is the only consumer of the seed besides the payload
// bytes and the simulators' jitter.
func Generate(w Workload, seed int64) *Script {
	s := &Script{}
	for c := 0; c < Clients; c++ {
		var deck []Kind
		for k, n := range w.Mix {
			for i := 0; i < n; i++ {
				deck = append(deck, Kind(k))
			}
		}
		rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
		for r := range s.Rounds {
			steps := make([]Step, 0, len(deck)*w.DecksPerRound)
			for d := 0; d < w.DecksPerRound; d++ {
				rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
				for _, k := range deck {
					steps = append(steps, Step{Kind: k, Target: target(k, w.Layout, rng)})
				}
			}
			s.Rounds[r][c] = steps
		}
	}
	return s
}

func target(k Kind, l Layout, rng *rand.Rand) uint16 {
	switch k {
	case WriteSmall:
		return uint16(rng.Intn(l.SmallTargets))
	case WriteLarge:
		return uint16(rng.Intn(l.LargeTargets))
	case Stat:
		return uint16(rng.Intn(l.Dirs * l.EntriesPerDir))
	case ReadDir:
		return uint16(rng.Intn(l.Dirs))
	default:
		return 0
	}
}

// Bytes serializes the script, so tests can compare two of them.
func (s *Script) Bytes() []byte {
	var out []byte
	for _, round := range s.Rounds {
		for _, steps := range round {
			out = binary.AppendUvarint(out, uint64(len(steps)))
			for _, st := range steps {
				out = append(out, byte(st.Kind))
				out = binary.BigEndian.AppendUint16(out, st.Target)
			}
		}
	}
	return out
}
