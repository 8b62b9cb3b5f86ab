package store

import "net"

// DialWrapped is Dial over a connection the test wraps first, to observe
// or break the byte stream under a real Remote.
func DialWrapped(addr string, wrap func(net.Conn) net.Conn) (*Remote, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	rs := newRemote(wrap(conn))
	if err := rs.hello(); err != nil {
		conn.Close()
		return nil, err
	}
	return rs, nil
}
