package homa

// ReceivedFree reports how many received messages wait on s's free
// list, for the recycled-state tests of package homa_test.
func ReceivedFree(s *Socket) int { return len(s.inFree) }

// SentState returns the state s keeps for its message id to (dst, port),
// as an identity the recycled-state tests compare, or nil once the
// message has been acknowledged.
func SentState(s *Socket, dst uint32, port uint16, id uint64) any {
	if p, ok := s.peers.Get(uint64(makePeerKey(dst, port))); ok {
		if m, ok := p.out.Get(id); ok {
			return m
		}
	}
	return nil
}
