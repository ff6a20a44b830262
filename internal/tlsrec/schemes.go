package tlsrec

import "smt/internal/wire"

// StreamSeq is TLS/TCP's record numbering (Figure 4): one monotonically
// incrementing counter for the whole connection.
type StreamSeq struct{ next uint64 }

// Next returns the sequence number for the next record and advances.
func (s *StreamSeq) Next() uint64 {
	n := s.next
	s.next++
	return n
}

// Fig5Row is one point of the Figure 5 trade-off: allocating sizeBits to
// the record-index field leaves 64-sizeBits for message IDs.
type Fig5Row struct {
	SizeBits       int     // bits for the intra-message record index
	IDBits         int     // bits for the message ID
	MaxMessages    float64 // distinct messages per session
	MaxMsgSizeMB   float64 // with smallRecord-byte records
	MaxMsgSize16KB float64 // with full 16 KB records, in MB
}

// Fig5Table computes the Figure 5 trade-off matrix for record-index field
// widths 8–17 bits, using the figure's 1.5 KB "small record" size and the
// protocol-maximum 16 KB record size.
func Fig5Table() []Fig5Row {
	const smallRecord = 1500
	rows := make([]Fig5Row, 0, 10)
	for sizeBits := 8; sizeBits <= 17; sizeBits++ {
		a := BitAllocation{MsgIDBits: 64 - sizeBits, RecIdxBits: sizeBits}
		rows = append(rows, Fig5Row{
			SizeBits:       sizeBits,
			IDBits:         a.MsgIDBits,
			MaxMessages:    a.MaxMessages(),
			MaxMsgSizeMB:   a.MaxMessageSize(smallRecord) / (1 << 20),
			MaxMsgSize16KB: a.MaxMessageSize(wire.MaxTLSRecord) / (1 << 20),
		})
	}
	return rows
}
