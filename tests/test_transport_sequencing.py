"""Unit + property tests for sequence-space bookkeeping."""

from types import SimpleNamespace

from hypothesis import example, given, settings, strategies as st

from repro.transports.base import FlowStats
from repro.transports.sequencing import (
    NO_SEQS, ReceiveScoreboard, RetransmitQueue, SenderScoreboard,
)

from tests.util import ScoreboardModel


class TestReceiveScoreboard:
    def test_in_order_advances_cum(self):
        rb = ReceiveScoreboard()
        for i in range(5):
            assert rb.add(i)
        assert rb.cum == 5
        assert rb.sack() == ()

    def test_out_of_order_fills_holes(self):
        rb = ReceiveScoreboard()
        rb.add(0)
        rb.add(2)
        rb.add(3)
        assert rb.cum == 1
        assert rb.sack() == (2, 3)
        rb.add(1)
        assert rb.cum == 4
        assert rb.sack() == ()

    def test_duplicates_counted_not_double_delivered(self):
        rb = ReceiveScoreboard()
        assert rb.add(0)
        assert not rb.add(0)
        rb.add(5)
        assert not rb.add(5)
        assert rb.duplicates == 2
        assert rb.received_count() == 2

    def test_sack_reports_highest_when_capped(self):
        rb = ReceiveScoreboard(sack_limit=3)
        for seq in (10, 2, 30, 4, 20):
            rb.add(seq)
        assert rb.sack() == (10, 20, 30)

    @given(st.lists(st.integers(0, 50), max_size=120))
    def test_property_cum_is_first_hole(self, seqs):
        rb = ReceiveScoreboard()
        seen = set()
        for s in seqs:
            rb.add(s)
            seen.add(s)
        expected_cum = 0
        while expected_cum in seen:
            expected_cum += 1
        assert rb.cum == expected_cum
        assert rb.received_count() == len(seen)


class TestSharedEmptySet:
    """A board's set of seqs above its cum starts as the one shared,
    immutable ``NO_SEQS`` and is its own set from the first such seq."""

    def test_fresh_boards_hold_the_shared_empty_set(self):
        assert ReceiveScoreboard()._ooo is NO_SEQS
        assert SenderScoreboard()._acked is NO_SEQS
        assert isinstance(NO_SEQS, frozenset) and not NO_SEQS

    def test_receive_boards_never_share_a_mutable_set(self):
        a, b, c = ReceiveScoreboard(), ReceiveScoreboard(), ReceiveScoreboard()
        a.add(3)
        b.add(5)
        assert a._ooo == {3} and b._ooo == {5} and a._ooo is not b._ooo
        assert c._ooo is NO_SEQS and not NO_SEQS
        assert c.add(3) and c.sack() == (3,)

    def test_sender_boards_never_share_a_mutable_set(self):
        a, b, c = SenderScoreboard(), SenderScoreboard(), SenderScoreboard()
        for board in (a, b, c):
            for seq in range(4):
                board.on_send(seq, 0)
        a.on_ack(0, (2,))
        assert b.remove(3)
        assert a._acked == {2} and b._acked == {3} and a._acked is not b._acked
        assert c._acked is NO_SEQS and not NO_SEQS
        assert not c.is_acked(2) and c.n_acked == 0


class TestSenderScoreboard:
    def test_cumulative_ack_clears_outstanding(self):
        sb = SenderScoreboard()
        for i in range(5):
            sb.on_send(i, 0)
        acked, lost = sb.on_ack(3, ())
        assert acked == [0, 1, 2]
        assert lost == []
        assert sb.in_flight == 2

    def test_sack_clears_individual(self):
        sb = SenderScoreboard()
        for i in range(5):
            sb.on_send(i, 0)
        acked, _ = sb.on_ack(0, (2, 4))
        assert acked == [2, 4]
        assert sb.in_flight == 3

    def test_dupack_loss_detection(self):
        sb = SenderScoreboard(dupthresh=3)
        for i in range(6):
            sb.on_send(i, 0)
        # seq 0 is missing; acks with news above it accumulate
        sb.on_ack(0, (1,))
        sb.on_ack(0, (2,))
        _, lost = sb.on_ack(0, (3,))
        assert lost == [0]
        assert sb.in_flight == 2  # 4, 5 still out

    def test_cum_past_lost_seq_reports_it_acked(self):
        """Regression: a seq declared lost then covered by a later
        cumulative ACK (its retransmission landed) must surface as newly
        acked, or the sender deadlocks waiting for it forever."""
        sb = SenderScoreboard(dupthresh=3)
        for i in range(6):
            sb.on_send(i, 0)
        sb.on_ack(0, (1,))
        sb.on_ack(0, (2,))
        _, lost = sb.on_ack(0, (3,))
        assert lost == [0]
        acked, _ = sb.on_ack(4, ())
        assert 0 in acked
        assert sb.is_acked(0)

    def test_sack_of_lost_seq_reports_it_acked(self):
        sb = SenderScoreboard(dupthresh=1)
        sb.on_send(0, 0)
        sb.on_send(1, 0)
        _, lost = sb.on_ack(0, (1,))
        assert lost == [0]
        # the "lost" packet's ack arrives late (spurious detection)
        acked, _ = sb.on_ack(0, (0,))
        assert acked == [0]

    def test_duplicate_acks_not_doubly_reported(self):
        sb = SenderScoreboard()
        sb.on_send(0, 0)
        acked1, _ = sb.on_ack(1, ())
        acked2, _ = sb.on_ack(1, ())
        assert acked1 == [0]
        assert acked2 == []

    def test_declare_all_lost(self):
        sb = SenderScoreboard()
        for i in range(4):
            sb.on_send(i, 0)
        assert sb.declare_all_lost() == [0, 1, 2, 3]
        assert sb.in_flight == 0

    def test_remove_implicit_ack(self):
        sb = SenderScoreboard()
        sb.on_send(7, 0)
        assert sb.remove(7)
        assert not sb.remove(7)
        assert sb.in_flight == 0
        assert sb.is_acked(7)

    def test_oldest_outstanding(self):
        sb = SenderScoreboard()
        assert sb.oldest_outstanding() is None
        sb.on_send(5, 0)
        sb.on_send(3, 0)
        assert sb.oldest_outstanding() == 3

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.lists(st.integers(0, 30), max_size=5)),
            max_size=40,
        )
    )
    @settings(max_examples=100)
    def test_property_no_seq_both_lost_and_outstanding(self, acks):
        """Whatever ACK stream arrives, a seq is never simultaneously
        outstanding and reported lost, and ack reports are unique."""
        sb = SenderScoreboard(dupthresh=3)
        n = 31
        for i in range(n):
            sb.on_send(i, 0)
        reported_acked = set()
        reported_lost = set()
        for cum, sack in acks:
            acked, lost = sb.on_ack(cum, sack)
            for s in acked:
                assert s not in reported_acked, "double-acked"
                reported_acked.add(s)
            for s in lost:
                reported_lost.add(s)
                assert s not in sb._outstanding
        for s in reported_acked:
            assert sb.is_acked(s)

    #: (op, which seq / packet / earlier ACK, random bits)
    OPS = st.lists(
        st.tuples(st.sampled_from(["send", "send", "deliver", "deliver",
                                   "replay", "drop", "remove", "timeout"]),
                  st.integers(0, 15), st.integers(0, 7)),
        min_size=30, max_size=120,
    )

    @given(n=st.integers(1, 14), sack_limit=st.sampled_from([1, 16]),
           dupthresh=st.sampled_from([1, 3]), ops=OPS)
    @settings(max_examples=100, deadline=None)
    def test_matches_the_acked_in_flight_lost_spec(self, n, sack_limit,
                                                   dupthresh, ops):
        """Random send / ACK (cum, SACK, echo) / stale ACK / ``remove`` /
        timeout sequences over a reordering, lossy network: every ACK
        reports exactly the seqs it newly acks and the losses the dupack
        rule declares, and at every step the scoreboard answers as
        :class:`ScoreboardModel` does (``n_acked`` is the acked count,
        every sent seq is one of acked, in flight and lost)."""
        sb = SenderScoreboard(dupthresh=dupthresh)
        model = ScoreboardModel(dupthresh)
        receiver = ReceiveScoreboard(sack_limit)
        network, acks = [], []
        next_new = 0

        def on_ack(cum, sack, echo):
            acked, lost = sb.on_ack(cum, sack, echo)
            assert len(set(acked)) == len(acked)
            assert (sorted(acked), lost) == model.ack(cum, sack, echo)

        for now, (op, which, bits) in enumerate(ops):
            if op == "send":
                # the lowest seq presumed lost, else new data
                seq = min(model.lost, default=None)
                if seq is None and next_new < n:
                    seq = next_new
                    next_new += 1
                if seq is None:
                    continue
                sb.on_send(seq, now)
                model.send(seq, now)
                network.append(seq)
            elif op == "timeout":
                assert sb.declare_all_lost() == model.declare_all_lost()
            elif op == "remove":
                # the same segment ACKed on FlexPass's other sub-flow
                if next_new:
                    seq = which % next_new
                    assert sb.remove(seq) == model.remove(seq)
            elif op == "replay":
                if acks:
                    on_ack(*acks[which % len(acks)])
            elif network:
                seq = network.pop(which % len(network))
                if op == "deliver":
                    receiver.add(seq)
                    # an echo is the ACKed packet's own seq, or absent
                    ack = (receiver.cum, receiver.sack(),
                           -1 if bits & 4 else seq)
                    acks.append(ack)
                    if bits & 3:  # a quarter of the ACKs are lost
                        on_ack(*ack)
            model.check(sb, range(n))


class TestRetransmitQueue:
    """The single-space senders' pick rule: the lowest detected loss, each
    counted as a retransmission, before any new data; never an acked seq."""

    #: (op, which in-network packet, is the ACK it triggers lost)
    OPS = st.lists(
        st.tuples(st.sampled_from(["send", "send", "deliver", "deliver",
                                   "drop", "timeout"]),
                  st.integers(0, 15), st.booleans()),
        min_size=30, max_size=120,
    )

    @given(n=st.integers(1, 14), credited=st.booleans(),
           sack_limit=st.sampled_from([1, 16]), ops=OPS)
    # The tail-loss shield resends seq 0 with two dupacks counted; a third
    # must still declare it lost (a restamped send would start from zero).
    @example(n=5, credited=True, sack_limit=16,
             ops=[("send", 0, False)] * 5 + [("deliver", 1, False)] * 2
             + [("send", 0, False), ("deliver", 1, False), ("send", 0, False)])
    # With a one-entry SACK list the ACK for seq 2 reports only seq 3: its
    # own seq must count as acknowledged too.
    @example(n=6, credited=False, sack_limit=1,
             ops=[("send", 0, False)] * 4
             + [("deliver", 3, False), ("deliver", 2, False)])
    @settings(max_examples=80, deadline=None)
    def test_picks_the_lowest_loss_before_new_data(self, n, credited,
                                                   sack_limit, ops):
        """Random interleavings of send / ACK(cum, sack, seq) / timeout over
        a modelled receiver and a reordering, lossy network. ``credited``
        selects the credit-clocked sender's form: with nothing to pick, the
        tail-loss shield resends the oldest seq in flight, counted as a
        retransmission and keeping its first send time and dupack count.
        ``sack_limit=1`` makes the ACK's own seq news its SACK list does
        not carry."""
        stats = FlowStats()
        queue = RetransmitQueue(n, stats, dupthresh=3)
        model = ScoreboardModel(3)
        receiver = ReceiveScoreboard(sack_limit)
        waiting = set()  # detected losses not acked or resent since
        network = []  # seqs in flight towards the receiver
        next_new = retransmissions = 0
        for now, (op, which, ack_lost) in enumerate(ops):
            if op == "send":
                seq = queue.next_seq()
                if waiting:
                    assert seq == min(waiting)
                    waiting.discard(seq)
                    retransmissions += 1
                elif next_new < n:
                    assert seq == next_new
                    next_new += 1
                else:
                    assert seq is None
                    if credited:
                        seq = queue.resend_oldest()
                        assert seq == min(model.flight, default=None)
                        retransmissions += seq is not None
                if seq is None:
                    continue
                assert seq not in model.acked
                queue.on_send(seq, now)
                if seq not in model.flight:
                    model.send(seq, now)
                network.append(seq)
            elif op == "timeout":
                waiting |= set(model.declare_all_lost())
                queue.on_timeout()
            elif network:
                seq = network.pop(which % len(network))
                if op == "deliver":
                    receiver.add(seq)
                    if not ack_lost:
                        ack = SimpleNamespace(ack=receiver.cum,
                                              sack=receiver.sack(), seq=seq)
                        acked, lost = queue.on_ack(ack)
                        assert (sorted(acked), lost) == model.ack(
                            ack.ack, ack.sack, seq)
                        waiting = (waiting - set(acked)) | set(lost)
            assert stats.retransmissions == retransmissions
            assert queue.next_new == next_new
            assert queue.all_acked == (len(model.acked) == n)
            model.check(queue.scoreboard, range(n))

    def test_timeout_requeues_everything_in_flight_lowest_first(self):
        stats = FlowStats()
        queue = RetransmitQueue(4, stats)
        for now in range(3):
            queue.on_send(queue.next_seq(), now)
        queue.on_ack(SimpleNamespace(ack=0, sack=(1,), seq=1))
        queue.on_timeout()
        assert [queue.next_seq() for _ in range(4)] == [0, 2, 3, None]
        assert stats.retransmissions == 2 and not queue.all_acked
