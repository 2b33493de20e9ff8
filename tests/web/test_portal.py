import pytest

from repro.common.errors import WebError
from repro.common.units import Mbps, MiB
from repro.hardware import Cluster
from repro.hdfs import Hdfs
from repro.video import R_720P, VideoFile
from repro.web import VideoPortal


def make_portal(n_hosts=6, server_kind="lighttpd"):
    cluster = Cluster(n_hosts)
    fs = Hdfs(cluster, namenode_host="node0",
              datanode_hosts=cluster.host_names[1:], block_size=16 * MiB,
              replication=2)
    portal = VideoPortal(
        cluster, fs, web_host="node1",
        transcode_workers=cluster.host_names[2:], server_kind=server_kind,
    )
    return cluster, portal


def upload_clip(duration=60.0, name="clip.avi"):
    return VideoFile(
        name=name, container="avi", vcodec="mpeg4", acodec="mp3",
        duration=duration, resolution=R_720P, fps=25.0, bitrate=4 * Mbps,
    )


def register_and_login(cluster, portal, username="kuan"):
    r = cluster.run(cluster.engine.process(portal.request(
        "POST", "/register",
        params={"username": username, "password": "secret99",
                "email": f"{username}@thu.edu.tw"})))
    assert r.ok
    _, token = portal.auth.outbox[-1]
    r = cluster.run(cluster.engine.process(portal.request(
        "POST", "/verify", params={"token": token})))
    assert r.ok
    r = cluster.run(cluster.engine.process(portal.request(
        "POST", "/login",
        params={"username": username, "password": "secret99"})))
    assert r.ok
    return r.set_session


def publish_video(cluster, portal, session, title="Nobody MV", **kw):
    resp = cluster.run(cluster.engine.process(portal.request(
        "POST", "/upload", session=session,
        params=dict({"title": title, "description": "the nobody video",
                     "tags": "kpop nobody", "media": upload_clip()}, **kw))))
    assert resp.ok, resp.body
    return resp.body["video_id"]


class TestAuthFlow:
    def test_register_verify_login_logout_pages(self):
        cluster, portal = make_portal()
        session = register_and_login(cluster, portal)
        assert session
        r = cluster.run(cluster.engine.process(portal.request(
            "POST", "/logout", session=session)))
        assert r.ok
        assert portal.auth.current_user(session) is None

    def test_login_before_verification_fails(self):
        cluster, portal = make_portal()
        cluster.run(cluster.engine.process(portal.request(
            "POST", "/register",
            params={"username": "eve", "password": "secret99",
                    "email": "e@x.y"})))
        r = cluster.run(cluster.engine.process(portal.request(
            "POST", "/login", params={"username": "eve", "password": "secret99"})))
        assert r.status == 403

    def test_register_missing_field(self):
        cluster, portal = make_portal()
        r = cluster.run(cluster.engine.process(portal.request(
            "POST", "/register", params={"username": "x"})))
        assert r.status == 400


class TestUploadFlow:
    def test_upload_publishes_and_creates_dynamic_link(self):
        cluster, portal = make_portal()
        session = register_and_login(cluster, portal)
        vid = publish_video(cluster, portal, session)
        row = portal.db.table("videos").get(vid)
        assert row["status"] == "published"
        # rendition is H.264 FLV (the Figure 23 player format)
        rend = portal.rendition(vid)
        assert (rend.vcodec, rend.container) == ("h264", "flv")
        # raw upload landed in HDFS through the mount
        assert portal.fs.namenode.exists(f"/uploads/raw/video-{vid}.avi")
        # published rendition in HDFS
        assert portal.fs.namenode.exists(f"/published/video-{vid}-720p.flv")
        # poster thumbnail extracted
        assert portal.thumbnail(vid) is not None

    def test_short_clip_on_six_workers_publishes(self):
        """A 10 s clip (5 GOPs) is cut into fewer segments than workers."""
        cluster, portal = make_portal(n_hosts=8)
        assert len(portal.transcoder.workers) == 6
        session = register_and_login(cluster, portal)
        resp = cluster.run(cluster.engine.process(portal.request(
            "POST", "/upload", session=session,
            params={"title": "short", "media": upload_clip(duration=10.0)})))
        assert resp.ok, resp.body
        vid = resp.body["video_id"]
        assert portal.db.table("videos").get(vid)["status"] == "published"
        assert portal.fs.namenode.exists(f"/published/video-{vid}-720p.flv")

    def test_upload_requires_login(self):
        cluster, portal = make_portal()
        r = cluster.run(cluster.engine.process(portal.request(
            "POST", "/upload",
            params={"title": "x", "media": upload_clip()})))
        assert r.status == 403

    def test_anonymous_cannot_upload_blocked_user_either(self):
        cluster, portal = make_portal()
        session = register_and_login(cluster, portal, "mallory")
        user = portal.auth.current_user(session)
        portal.db.table("users").update(user["id"], blocked=True)
        r = cluster.run(cluster.engine.process(portal.request(
            "POST", "/upload", session=session,
            params={"title": "x", "media": upload_clip()})))
        assert r.status == 403


class TestSearchAndHome:
    def test_home_lists_recent_videos(self):
        cluster, portal = make_portal()
        session = register_and_login(cluster, portal)
        vid = publish_video(cluster, portal, session)
        r = cluster.run(cluster.engine.process(portal.request("GET", "/")))
        assert r.ok
        assert r.body["search_box"]
        assert any(v["id"] == vid for v in r.body["recent"])

    def test_figure_18_search_nobody(self):
        cluster, portal = make_portal()
        session = register_and_login(cluster, portal)
        vid = publish_video(cluster, portal, session, title="Nobody - Wonder Girls")
        publish_video(cluster, portal, session, title="Cat video",
                      description="a cat does cat things", tags="cat cute")
        cluster.run(cluster.engine.process(portal.refresh_search_index()))
        r = cluster.run(cluster.engine.process(portal.request(
            "GET", "/search", params={"q": "nobody"})))
        assert r.ok
        ids = [v["id"] for v in r.body["results"]]
        assert ids == [vid]

    def test_search_before_indexing_finds_nothing(self):
        cluster, portal = make_portal()
        session = register_and_login(cluster, portal)
        publish_video(cluster, portal, session)
        r = cluster.run(cluster.engine.process(portal.request(
            "GET", "/search", params={"q": "nobody"})))
        assert r.body["results"] == []

    def test_removed_video_drops_from_results(self):
        cluster, portal = make_portal()
        admin_session = register_and_login(cluster, portal, "admin")
        vid = publish_video(cluster, portal, admin_session)
        cluster.run(cluster.engine.process(portal.refresh_search_index()))
        r = cluster.run(cluster.engine.process(portal.request(
            "POST", f"/admin/video/{vid}/remove",
            session=admin_session)))
        assert r.ok
        r = cluster.run(cluster.engine.process(portal.request(
            "GET", "/search", params={"q": "nobody"})))
        assert r.body["results"] == []


class TestPlayerPage:
    def test_player_page_fields(self):
        cluster, portal = make_portal()
        session = register_and_login(cluster, portal)
        vid = publish_video(cluster, portal, session)
        r = cluster.run(cluster.engine.process(portal.request(
            "GET", f"/video/{vid}")))
        assert r.ok
        player = r.body["player"]
        assert player["format"] == "h264/flv"
        assert player["resolution"] == "1280x720"
        assert player["aspect"] == "16x9"
        assert player["seekable_time_bar"]
        assert set(r.body["share"]) == {"facebook", "plurk", "twitter"}

    def test_views_increment(self):
        cluster, portal = make_portal()
        session = register_and_login(cluster, portal)
        vid = publish_video(cluster, portal, session)
        for _ in range(3):
            cluster.run(cluster.engine.process(portal.request(
                "GET", f"/video/{vid}")))
        assert portal.db.table("videos").get(vid)["views"] == 3

    def test_missing_video_404(self):
        cluster, portal = make_portal()
        r = cluster.run(cluster.engine.process(portal.request(
            "GET", "/video/999")))
        assert r.status == 404

    def test_play_session_streams(self):
        cluster, portal = make_portal()
        session = register_and_login(cluster, portal)
        vid = publish_video(cluster, portal, session)
        playback = portal.play(vid, "node5", watch_plan=[(0.0, 5.0), (30.0, 5.0)])
        report = cluster.run(cluster.engine.process(playback.run()))
        assert report.watched_seconds == pytest.approx(10.0, abs=0.5)
        assert len(report.seek_latencies) == 1

    def test_play_unpublished_rejected(self):
        cluster, portal = make_portal()
        with pytest.raises(WebError):
            portal.play(42, "node5")


class TestCommentsFlagsAdmin:
    def test_comment_appears_on_player_page(self):
        cluster, portal = make_portal()
        session = register_and_login(cluster, portal)
        vid = publish_video(cluster, portal, session)
        r = cluster.run(cluster.engine.process(portal.request(
            "POST", f"/video/{vid}/comment", session=session,
            params={"text": "great video!"})))
        assert r.ok
        r = cluster.run(cluster.engine.process(portal.request(
            "GET", f"/video/{vid}")))
        assert r.body["comments"][0]["text"] == "great video!"

    def test_comment_requires_login(self):
        cluster, portal = make_portal()
        session = register_and_login(cluster, portal)
        vid = publish_video(cluster, portal, session)
        r = cluster.run(cluster.engine.process(portal.request(
            "POST", f"/video/{vid}/comment", params={"text": "anon"})))
        assert r.status == 403

    def test_flag_then_admin_remove(self):
        cluster, portal = make_portal()
        admin_session = register_and_login(cluster, portal, "admin")
        user_session = register_and_login(cluster, portal, "user1")
        vid = publish_video(cluster, portal, user_session)
        r = cluster.run(cluster.engine.process(portal.request(
            "POST", f"/video/{vid}/flag", session=user_session,
            params={"reason": "bad film"})))
        assert r.ok
        r = cluster.run(cluster.engine.process(portal.request(
            "GET", "/admin", session=admin_session)))
        assert r.body["open_flags"][0]["video_id"] == vid
        r = cluster.run(cluster.engine.process(portal.request(
            "POST", f"/admin/video/{vid}/remove", session=admin_session)))
        assert r.ok
        assert portal.db.table("videos").get(vid)["status"] == "removed"
        # flags resolved, HDFS rendition gone
        assert all(f["resolved"] for f in portal.db.table("flags").select())
        assert not portal.fs.namenode.exists(f"/published/video-{vid}-720p.flv")

    def test_admin_pages_require_admin(self):
        cluster, portal = make_portal()
        session = register_and_login(cluster, portal, "pleb")
        r = cluster.run(cluster.engine.process(portal.request(
            "GET", "/admin", session=session)))
        assert r.status == 403

    def test_block_vicious_user_kills_sessions(self):
        cluster, portal = make_portal()
        admin_session = register_and_login(cluster, portal, "admin")
        user_session = register_and_login(cluster, portal, "troll")
        user = portal.auth.current_user(user_session)
        r = cluster.run(cluster.engine.process(portal.request(
            "POST", f"/admin/user/{user['id']}/block",
            session=admin_session)))
        assert r.ok
        assert portal.auth.current_user(user_session) is None
        with pytest.raises(Exception):
            portal.auth.login("troll", "secret99")
